package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.golden and testdata/all.json.golden from this build")

// paperbench builds the command into a temporary directory and returns
// its path.
func paperbench(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds paperbench")
	}
	bin := filepath.Join(t.TempDir(), "paperbench")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building paperbench: %v\n%s", err, msg)
	}
	return bin
}

// TestAllIsByteIdentical pins the paper's output: `paperbench -exp all`
// runs on the virtual clock, so its text and its -json records are the
// same bytes on every machine and at every GOMAXPROCS. A change that moves
// any experiment's output fails here; regenerate with
//
//	go test ./cmd/paperbench -run TestAllIsByteIdentical -update
//
// and say why the paper's tables moved.
func TestAllIsByteIdentical(t *testing.T) {
	bin := paperbench(t)
	dir := t.TempDir()
	for _, procs := range []string{"1", "8"} {
		t.Run("GOMAXPROCS="+procs, func(t *testing.T) {
			run := func(args ...string) []byte {
				t.Helper()
				cmd := exec.Command(bin, args...)
				cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("paperbench %v: %v\n%s", args, err, stderr.Bytes())
				}
				return out
			}
			text := run("-exp", "all")
			jsonPath := filepath.Join(dir, "all-"+procs+".json")
			withJSON := run("-exp", "all", "-json", jsonPath)
			if !bytes.HasPrefix(withJSON, text) {
				t.Error("-json changes the text output")
			}
			records, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, "testdata/all.golden", text)
			golden(t, "testdata/all.json.golden", records)
		})
	}
}

// golden compares got with the file at path, or rewrites it under -update.
func golden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
}
