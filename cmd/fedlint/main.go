// Command fedlint runs the repo's analyzer suite (internal/lintrules)
// over the module and exits non-zero on any finding. It is stdlib-only:
// packages are parsed with go/parser and type-checked with go/types
// against the $GOROOT source importer, so the module's go.mod stays
// dependency-free.
//
// Usage:
//
//	go run ./cmd/fedlint ./...
//	go run ./cmd/fedlint -json ./...
//	go run ./cmd/fedlint -list
//
// The only supported pattern is ./... (the whole module); fedlint's rules
// are cross-package (layering, harness restrictions), so partial loads
// would weaken them. Findings print as file:line:col: message [rule] —
// or, with -json, as a JSON array of {file,line,col,rule,message} for
// editor and CI integration — and can be suppressed in place with
// //fedlint:ignore <rule> <reason>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fedwf/internal/lintrules"
)

func main() {
	list := flag.Bool("list", false, "list the analyzer rules and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array of {file,line,col,rule,message}")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fedlint [-list] [-json] ./...\n\nrules:\n")
		for _, a := range lintrules.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lintrules.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "..." {
			fmt.Fprintf(os.Stderr, "fedlint: unsupported pattern %q (only ./... — the rules are cross-package)\n", arg)
			os.Exit(2)
		}
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		os.Exit(2)
	}
	loader, err := lintrules.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedlint:", err)
		os.Exit(2)
	}

	diags := lintrules.RunAnalyzers(pkgs, lintrules.Analyzers())
	for i := range diags {
		// Print module-relative paths so the output is stable across
		// machines and clickable from the repo root.
		if rel, err := filepath.Rel(root, diags[i].Position.Filename); err == nil {
			diags[i].Position.Filename = rel
		}
	}
	if *asJSON {
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Rule    string `json:"rule"`
			Message string `json:"message"`
		}
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{
				File: d.Position.Filename, Line: d.Position.Line, Col: d.Position.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "fedlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fedlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
