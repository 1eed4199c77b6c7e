package batcher

import "testing"

func TestEnabled(t *testing.T) {
	cases := []struct {
		pol  Policy
		want bool
	}{
		{Policy{}, false},
		{Policy{Count: 1}, false},
		{Policy{Count: 2}, true},
	}
	for _, c := range cases {
		if got := c.pol.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.pol, got, c.want)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if got := (Policy{Count: 1}).String(); got != "off" {
		t.Fatalf("disabled policy String = %q", got)
	}
	if got := (Policy{Count: 8}).String(); got != "count=8" {
		t.Fatalf("String = %q", got)
	}
}
