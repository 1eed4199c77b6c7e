package simlat

import "time"

// Stopwatch reads wall time for the durations that are real serving time,
// not simulated work: a statement's wall latency, an admission queue wait,
// the wall duration recorded beside a traced span. It is the sanctioned
// wall-clock reader outside simlat (rule virtualclock); the cost model
// itself, Task, never touches the wall clock. The zero Stopwatch reads the
// time since the zero time.Time; obtain one from StartStopwatch.
type Stopwatch struct{ start time.Time }

// StartStopwatch starts a stopwatch at the current wall time.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
