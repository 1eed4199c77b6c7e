package main

import (
	"context"
	"strings"
	"testing"

	"fedwf/internal/fdbs"
	"fedwf/internal/fedfunc"
)

// TestRenderReadsTheRelations renders one frame against a live server as
// an ordinary client: every section is filled from the fed_* relations.
func TestRenderReadsTheRelations(t *testing.T) {
	srv, err := fdbs.NewServer(fdbs.Config{Arch: fedfunc.ArchWfMS})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := fdbs.DialClient(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Exec(context.Background(), "SELECT Q.Qual FROM TABLE (GetSuppQual('Supplier3')) AS Q"); err != nil {
		t.Fatal(err)
	}

	frame, err := render(client, addr.String(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"journal seq ", "SLO  availability 0.9950, latency 250 paper-ms", "1h ",
		"select q.qual from table (getsuppqual(?)) as q",
		"wf-000001  GetSuppQual", "wf_instance", "statement",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
}
