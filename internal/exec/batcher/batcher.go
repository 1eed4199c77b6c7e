// Package batcher implements the executor's batch-formation policy: outer
// rows destined for the same federated call accumulate until a trigger
// fires, then flush as one set-oriented invocation. The policy follows the
// count/bytes/period triple popularised by stream processors (Benthos-style
// batch policies): whichever trigger fires first flushes the batch.
//
// The period trigger is measured on the statement's virtual clock
// (simlat.Task time), never the wall clock, so batched plans stay
// deterministic under the virtual-time experiments.
package batcher

import (
	"fmt"
	"time"

	"fedwf/internal/types"
)

// Policy says when an accumulating batch must flush. The zero value — and
// any Count below 2 with no byte or period bound — disables batching
// entirely: every row flushes alone, which is the legacy per-row path.
type Policy struct {
	// Count flushes after this many rows (0 or 1 leaves only the other
	// triggers; a batch never exceeds Count rows when Count >= 2).
	Count int
	// Bytes flushes once the estimated wire size of the accumulated
	// argument rows reaches this many bytes (0 disables the trigger).
	Bytes int
	// Period flushes once the virtual time elapsed since the first pending
	// row reaches this duration (0 disables the trigger).
	Period time.Duration
}

// Enabled reports whether the policy can ever hold more than one row.
func (p Policy) Enabled() bool {
	return p.Count >= 2 || p.Bytes > 0 || p.Period > 0
}

// String renders the active triggers for plan explanations.
func (p Policy) String() string {
	if !p.Enabled() {
		return "off"
	}
	s := ""
	if p.Count >= 2 {
		s = fmt.Sprintf("count=%d", p.Count)
	}
	if p.Bytes > 0 {
		if s != "" {
			s += ","
		}
		s += fmt.Sprintf("bytes=%d", p.Bytes)
	}
	if p.Period > 0 {
		if s != "" {
			s += ","
		}
		s += fmt.Sprintf("period=%s", p.Period)
	}
	return s
}

// Trigger says why a batch flushed.
type Trigger int

// Flush triggers, in evaluation order.
const (
	// TriggerNone means the batch may keep accumulating.
	TriggerNone Trigger = iota
	// TriggerCount fired the row-count bound.
	TriggerCount
	// TriggerBytes fired the byte-size bound.
	TriggerBytes
	// TriggerPeriod fired the virtual-time bound.
	TriggerPeriod
	// TriggerFinal is the end-of-input flush of a non-empty remainder.
	TriggerFinal
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerCount:
		return "count"
	case TriggerBytes:
		return "bytes"
	case TriggerPeriod:
		return "period"
	case TriggerFinal:
		return "final"
	default:
		return "none"
	}
}

// Batcher tracks one accumulating batch against a Policy. It holds no rows
// itself — the caller owns the buffered rows and asks the batcher, per
// appended row, whether the batch must flush now. Not safe for concurrent
// use; each ParallelApply worker owns its own Batcher.
type Batcher struct {
	pol   Policy
	count int
	bytes int
	first time.Duration
}

// New returns an empty batcher for the policy.
func New(pol Policy) *Batcher {
	return &Batcher{pol: pol}
}

// Policy returns the batcher's policy.
func (b *Batcher) Policy() Policy { return b.pol }

// Pending returns the number of rows accounted since the last Flush.
func (b *Batcher) Pending() int { return b.count }

// Add accounts one row of the given estimated size arriving at virtual
// instant now and reports which trigger, if any, requires the caller to
// flush the batch (including this row) before accepting more.
func (b *Batcher) Add(size int, now time.Duration) Trigger {
	if b.count == 0 {
		b.first = now
	}
	b.count++
	b.bytes += size
	if b.pol.Count >= 2 && b.count >= b.pol.Count {
		return TriggerCount
	}
	if b.pol.Bytes > 0 && b.bytes >= b.pol.Bytes {
		return TriggerBytes
	}
	if b.pol.Period > 0 && now-b.first >= b.pol.Period {
		return TriggerPeriod
	}
	if !b.pol.Enabled() {
		// Degenerate policy: every row is its own batch.
		return TriggerCount
	}
	return TriggerNone
}

// Flush resets the accumulation counters after the caller drained its
// buffered rows.
func (b *Batcher) Flush() {
	b.count = 0
	b.bytes = 0
	b.first = 0
}

// RowBytes estimates the wire size of one argument row: a fixed per-value
// header plus the rendered payload — an upper estimate of the framed
// encoding, close enough for the byte trigger to be meaningful.
func RowBytes(row []types.Value) int {
	n := 0
	for _, v := range row {
		n += 16
		if v.Kind() == types.KindString {
			n += len(v.Str())
		}
	}
	return n
}
