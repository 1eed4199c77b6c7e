package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"fedwf/internal/simlat"
)

// SlowQueryLog writes one structured line per statement whose simulated
// latency reaches the threshold. A nil log, a nil writer, or a
// non-positive threshold disables it.
type SlowQueryLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration // PaperMS
}

// NewSlowQueryLog returns a log writing to w for statements at or above
// threshold (in paper time). Returns nil when disabled.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowQueryLog{w: w, threshold: threshold}
}

// Observe logs a successful statement whose paper latency reached the
// threshold and reports whether it did. The span tree, when present, is
// flattened into a one-line summary.
func (l *SlowQueryLog) Observe(st *Statement) bool {
	if l == nil || st.Err != "" || st.Paper < l.threshold {
		return false
	}
	line := fmt.Sprintf("slow-query paper_ms=%.1f wall_ms=%.3f rows=%d stmt=%q",
		float64(st.Paper)/float64(simlat.PaperMS),
		float64(st.Wall)/float64(time.Millisecond),
		st.Rows, compactStmt(st.SQL))
	if s := Summary(st.Root); s != "" {
		line += fmt.Sprintf(" spans=%q", s)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintln(l.w, line)
	return true
}

// Flush pushes buffered lines out of the underlying writer when it
// supports flushing (bufio.Writer's Flush or an os.File's Sync) — wired
// into the server's graceful-shutdown drain so the tail of the log
// survives SIGTERM. A nil log or an unbuffered writer is a no-op.
func (l *SlowQueryLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch w := l.w.(type) {
	case interface{ Flush() error }:
		return w.Flush()
	case interface{ Sync() error }:
		return w.Sync()
	}
	return nil
}

// compactStmt collapses runs of whitespace so the statement fits one line.
func compactStmt(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
