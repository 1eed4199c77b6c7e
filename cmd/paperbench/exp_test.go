package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestExpList pins how -exp reads its list: an unknown id, the empty one
// included, fails the run before any experiment prints and is named on
// stderr; "all" anywhere in the list runs everything; any other list runs
// exactly the experiments it names, in print order.
func TestExpList(t *testing.T) {
	bin := paperbench(t)
	all, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`(?m)^=== (E\d+) `)
	for _, tc := range []struct {
		exp      string
		wantErr  string   // stderr substring of a failing run
		wantOut  []byte   // exact stdout of a passing run, if set
		sections []string // the experiments a passing run prints, in order
	}{
		{exp: "nosuch", wantErr: `unknown experiment "nosuch"`},
		{exp: "fig5,nosuch", wantErr: `unknown experiment "nosuch"`},
		{exp: "batch,serv", wantErr: `unknown experiment "serv"`},
		{exp: "", wantErr: `unknown experiment ""`},
		{exp: "fig5,", wantErr: `unknown experiment ""`},
		{exp: "all,fig5", wantOut: all},
		{exp: "fig5, ALL", wantOut: all},
		{exp: "serve,batch", sections: []string{"E8", "E13", "E16"}},
		{exp: "fig6", sections: []string{"E3"}},
	} {
		t.Run(tc.exp, func(t *testing.T) {
			cmd := exec.Command(bin, "-exp", tc.exp)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if tc.wantErr != "" {
				if code := cmd.ProcessState.ExitCode(); code != 1 {
					t.Errorf("exit code %d, want 1", code)
				}
				if !strings.Contains(stderr.String(), tc.wantErr) {
					t.Errorf("stderr %q lacks %q", stderr.String(), tc.wantErr)
				}
				if len(out) != 0 {
					t.Errorf("a rejected list printed:\n%s", out)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if tc.wantOut != nil && !bytes.Equal(out, tc.wantOut) {
				t.Errorf("output differs from testdata/all.golden (%d bytes, want %d)", len(out), len(tc.wantOut))
			}
			if tc.sections != nil {
				var got []string
				for _, m := range header.FindAllSubmatch(out, -1) {
					got = append(got, string(m[1]))
				}
				if strings.Join(got, ",") != strings.Join(tc.sections, ",") {
					t.Errorf("sections %v, want %v", got, tc.sections)
				}
			}
		})
	}
}
