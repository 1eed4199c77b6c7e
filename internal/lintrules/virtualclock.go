package lintrules

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Calling any of them on a measured path silently corrupts
// the reproduction's determinism: the paper's E1–E12 numbers are only
// machine-independent because latency is simulated on simlat's virtual
// clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// VirtualClock forbids wall-clock reads and waits inside internal/
// packages. Simulated time flows through simlat.Task and real serving time
// through simlat.Stopwatch; simlat is the one allowlisted package.
// References to time.Now as a *value*
// (clock injection, as resil's breaker and executor do) are allowed;
// calls are not.
var VirtualClock = &Analyzer{
	Name: "virtualclock",
	Doc:  "forbid wall-clock calls (time.Now/Sleep/After/Since/...) outside the simlat meter",
	Run:  runVirtualClock,
}

const (
	modPrefix     = "fedwf/"
	internalPfx   = "fedwf/internal/"
	simlatPkgPath = "fedwf/internal/simlat"
	resilPkgPath  = "fedwf/internal/resil"
	obsPkgPath    = "fedwf/internal/obs"
)

func runVirtualClock(pass *Pass) {
	if !strings.HasPrefix(pass.Pkg.PkgPath, internalPfx) || pass.Pkg.PkgPath == simlatPkgPath {
		return
	}
	calls := callFuns(pass.Pkg.Files)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := usedPkgObject(pass.Pkg.Info, sel.Sel, "time", wallClockFuncs)
			if name == "" {
				return true
			}
			if isCall(calls, sel) {
				pass.Reportf(sel.Pos(),
					"call to time.%s on a measured path: read paper time from the task (task.Elapsed) or wall time from simlat.StartStopwatch instead", name)
				return true
			}
			// A bare reference is clock injection; resil's breaker and
			// executor default their injectable clocks this way.
			if pass.Pkg.PkgPath != resilPkgPath {
				pass.Reportf(sel.Pos(),
					"reference to time.%s outside resil's injected-clock fields: route wall time through simlat", name)
			}
			return true
		})
	}
}
