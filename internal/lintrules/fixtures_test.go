package lintrules

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared: LoadModule type-checks every
// package (and the stdlib it uses, from source), which dominates the
// suite's runtime, and the fixture packages resolve their
// fedwf/internal/ imports against this load.
var (
	loadOnce   sync.Once
	loadShared *Loader
	loadPkgs   []*Package
	loadErr    error
)

func moduleLoad(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loadErr = err
			return
		}
		loadShared, loadErr = NewLoader(root)
		if loadErr != nil {
			return
		}
		loadPkgs, loadErr = loadShared.LoadModule()
	})
	if loadErr != nil {
		t.Fatalf("loading module: %v", loadErr)
	}
	return loadShared, loadPkgs
}

// fixtureTests maps each golden fixture directory to the import path it
// claims and the single rule it exercises. Claimed internal paths put
// the fixture in scope of internal-only rules; the layering fixture
// claims a real row ("exec") to be checked against it.
var fixtureTests = []struct {
	dir     string
	claimed string
	rule    *Analyzer
}{
	{"virtualclock", "fedwf/internal/fixturevclock", VirtualClock},
	{"ctxfirst", "fedwf/internal/fixturectx", CtxFirst},
	{"errtaxonomy", "fedwf/internal/fixtureerr", ErrTaxonomy},
	{"spanend", "fedwf/internal/fixturespan", SpanEnd},
	{"layering", "fedwf/internal/exec", Layering},
	{"layering_harness", "fedwf/fixtureharness", Layering},
	{"layering_unknown", "fedwf/internal/mystery", Layering},
	{"metricname", "fedwf/internal/fixturemetric", MetricName},
	{"eventkind", "fedwf/internal/fixturekind", EventKind},
	{"lockheld", "fedwf/internal/fixturelock", LockHeld},
	{"lockorder", "fedwf/internal/fixtureorder", LockOrder},
	{"goleak", "fedwf/internal/fixtureleak", GoLeak},
	{"ctxflow", "fedwf/internal/fixturectxflow", CtxFlow},
	{"suppress_span", "fedwf/internal/fixturesuppress", VirtualClock},
}

// TestFixtures runs each analyzer over its golden fixture and matches
// the diagnostics against the fixture's "// want" comments (one or more
// backquoted regexps per comment): every finding must be wanted on its
// line, every want must be found.
func TestFixtures(t *testing.T) {
	loader, _ := moduleLoad(t)
	for _, tt := range fixtureTests {
		t.Run(tt.dir, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", "src", tt.dir), tt.claimed)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{tt.rule})
			wants := collectWants(t, pkg)
			for _, d := range diags {
				key := d.Position.Filename + "\x00" + strconv.Itoa(d.Position.Line)
				matched := false
				rest := wants[key]
				for i, w := range rest {
					if w != nil && w.MatchString(d.Message) {
						rest[i] = nil
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, res := range wants {
				for _, w := range res {
					if w != nil {
						file, line, _ := strings.Cut(key, "\x00")
						t.Errorf("%s:%s: wanted diagnostic matching %q, got none", filepath.Base(file), line, w)
					}
				}
			}
		})
	}
}

var wantRe = regexp.MustCompile("`([^`]+)`")

// collectWants parses the "// want" comments, keyed by file and line.
func collectWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	total := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := pos.Filename + "\x00" + strconv.Itoa(pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[key] = append(wants[key], re)
					total++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("fixture has no want comments; the test would pass vacuously")
	}
	return wants
}
