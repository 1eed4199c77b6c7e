package lintrules

import (
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Layering enforces the federation's import DAG. The architecture layers
// packages from primitives (types, simlat) through the FDBS core
// (catalog, exec, plan, engine) and the workflow side (rpc, appsys, wfms,
// controller) up to the coupling layer (udtf, fedfunc, wrapper, fdbs);
// allowedImports below is the single declarative source of truth. An
// internal package importing outside its row — or a new internal package
// missing from the table — is a diagnostic, so the DAG can only change by
// editing the table in the same commit.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "internal packages may only import the internal packages their allowedImports row lists",
	Run:  runLayering,
}

// allowedImports maps each internal package (path relative to
// fedwf/internal/) to the internal packages it may import. The rows are
// ordered bottom-up: primitives, observability, FDBS core, workflow side,
// coupling layer, harness.
var allowedImports = map[string][]string{
	// Primitives: shared value types, storage, parsing, virtual time.
	"types":     {},
	"storage":   {"types"},
	"sqlparser": {"types"},
	"simlat":    {},

	// Observability and resilience.
	"obs":           {"simlat"},
	"obs/collector": {"obs", "simlat"},
	"obs/journal":   {"obs", "simlat", "types"},
	"obs/stats":     {"obs", "resil", "simlat", "types"},
	"resil":         {"obs", "simlat", "types"},

	// FDBS core.
	"catalog":      {"simlat", "sqlparser", "storage", "types"},
	"exec/batcher": {"types"},
	"exec":         {"catalog", "exec/batcher", "obs", "obs/stats", "resil", "simlat", "sqlparser", "storage", "types"},
	"plan":         {"catalog", "exec", "exec/batcher", "simlat", "sqlparser", "types"},
	"engine":       {"catalog", "exec", "exec/batcher", "obs", "obs/stats", "plan", "resil", "simlat", "sqlparser", "types"},

	// Workflow side.
	"rpc":        {"obs", "resil", "simlat", "types"},
	"appsys":     {"obs", "resil", "rpc", "simlat", "storage", "types"},
	"wfms":       {"appsys", "obs", "resil", "simlat", "types"},
	"controller": {"appsys", "obs", "resil", "rpc", "simlat", "types", "wfms"},

	// Coupling layer (paper Sect. 3: UDTFs, federation functions,
	// wrappers, and the FDBS server tying both worlds together).
	"udtf":    {"appsys", "catalog", "controller", "engine", "obs", "rpc", "simlat", "sqlparser", "types", "wfms"},
	"wrapper": {"catalog", "engine", "obs", "rpc", "simlat", "sqlparser", "types"},
	"fedfunc": {"appsys", "catalog", "controller", "engine", "obs", "resil", "rpc", "simlat", "sqlparser", "types", "udtf", "wfms"},
	"fdbs":    {"appsys", "catalog", "engine", "fedfunc", "obs", "obs/collector", "obs/journal", "obs/stats", "resil", "rpc", "simlat", "types", "wrapper"},

	// Harness and tooling. benchharn is additionally restricted to
	// process-edge importers (cmd/, examples/, the root package).
	"benchharn":      {"appsys", "exec", "fdbs", "fedfunc", "obs", "obs/collector", "obs/journal", "obs/stats", "resil", "rpc", "simlat", "types", "udtf", "wfms"},
	"lintrules":      {"lintrules/flow"},
	"lintrules/flow": {},
}

// harnessOnly lists internal packages that only process-edge packages
// (cmd/..., examples/..., the module root) may import.
var harnessOnly = map[string]bool{"benchharn": true}

// internalImport is one import of a fedwf/internal/ package.
type internalImport struct {
	rel string // path relative to fedwf/internal/
	pos token.Pos
}

func runLayering(pass *Pass) {
	self := pass.Pkg.PkgPath
	imports := internalImports(pass)

	if rel, ok := strings.CutPrefix(self, internalPfx); ok {
		allowed, known := allowedImports[rel]
		if !known {
			pass.Reportf(pass.Pkg.Files[0].Package,
				"internal package %s is not in the layering table: add a row to allowedImports in internal/lintrules/layering.go", rel)
			return
		}
		set := make(map[string]bool, len(allowed))
		for _, a := range allowed {
			set[a] = true
		}
		for _, imp := range imports {
			if !set[imp.rel] {
				pass.Reportf(imp.pos,
					"layer violation: %s may not import %s (allowed: %s)", rel, imp.rel, rowString(allowed))
			}
		}
		return
	}

	// Outside internal/: only the harness-only restriction applies.
	if processEdge(self) {
		return
	}
	for _, imp := range imports {
		if harnessOnly[imp.rel] {
			pass.Reportf(imp.pos,
				"%s is harness-only: importable from cmd/, examples/, and the module root, not %s", imp.rel, self)
		}
	}
}

// internalImports collects the package's imports of fedwf/internal/
// packages with the position of each import spec.
func internalImports(pass *Pass) []internalImport {
	var out []internalImport
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if rel, ok := strings.CutPrefix(p, internalPfx); ok {
				out = append(out, internalImport{rel: rel, pos: imp.Path.Pos()})
			}
		}
	}
	return out
}

func rowString(allowed []string) string {
	if len(allowed) == 0 {
		return "nothing"
	}
	s := append([]string(nil), allowed...)
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// processEdge reports whether the package is a process edge: the module
// root, a cmd/ package, or an example.
func processEdge(pkgPath string) bool {
	if pkgPath+"/" == modPrefix {
		return true
	}
	rel, ok := strings.CutPrefix(pkgPath, modPrefix)
	if !ok {
		return false
	}
	return rel == "cmd" || strings.HasPrefix(rel, "cmd/") ||
		rel == "examples" || strings.HasPrefix(rel, "examples/")
}
