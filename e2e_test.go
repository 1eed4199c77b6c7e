package fedwf_test

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles the repository's commands once per test run.
func buildBinaries(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = bin
	}
	return out
}

// freePort reserves an ephemeral TCP port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestEndToEndServerAndClient boots fedserver, runs statements through
// fedsql, and checks the results — the full wire path of the paper's
// integration server.
func TestEndToEndServerAndClient(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildBinaries(t, "fedserver", "fedsql")
	addr := freePort(t)

	server := exec.Command(bins["fedserver"], "-addr", addr, "-arch", "wfms")
	server.Stdout = os.Stderr
	server.Stderr = os.Stderr
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Signal(os.Interrupt)
		server.Wait()
	}()

	// Wait for the listener.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fedserver did not start listening")
		}
		time.Sleep(50 * time.Millisecond)
	}

	run := func(sql string) string {
		cmd := exec.Command(bins["fedsql"], "-addr", addr, "-c", sql)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("fedsql %q: %v\n%s", sql, err, out)
		}
		return string(out)
	}

	out := run("SELECT R.Decision FROM TABLE (BuySuppComp(4, 'washer')) AS R")
	if !strings.Contains(out, "Decision") || !(strings.Contains(out, "YES") || strings.Contains(out, "NO")) {
		t.Errorf("federated call output:\n%s", out)
	}
	run("CREATE TABLE t (a INT)")
	run("INSERT INTO t VALUES (1), (2), (3)")
	out = run("SELECT COUNT(*) AS n FROM t")
	if !strings.Contains(out, "3") {
		t.Errorf("count output:\n%s", out)
	}
	// Errors surface with a non-zero exit.
	cmd := exec.Command(bins["fedsql"], "-addr", addr, "-c", "SELECT * FROM nowhere")
	if err := cmd.Run(); err == nil {
		t.Error("fedsql should fail on a bad statement")
	}
}

// TestEndToEndTools smoke-tests wfrun. paperbench has tests of its own
// (cmd/paperbench).
func TestEndToEndTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bins := buildBinaries(t, "wfrun")

	out, err := exec.Command(bins["wfrun"], "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("wfrun -list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "BuySuppComp") {
		t.Errorf("wfrun -list output:\n%s", out)
	}
	out, err = exec.Command(bins["wfrun"], "-process", "BuySuppComp", "-args", "4,washer", "-audit").CombinedOutput()
	if err != nil {
		t.Fatalf("wfrun: %v\n%s", err, out)
	}
	for _, want := range []string{"5 activities", "Decision", "audit trail", "completed"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("wfrun output missing %q:\n%s", want, out)
		}
	}
	if msg, err := exec.Command(bins["wfrun"], "-process", "NoSuch").CombinedOutput(); err == nil {
		t.Errorf("wfrun should fail for unknown process:\n%s", msg)
	}
}
