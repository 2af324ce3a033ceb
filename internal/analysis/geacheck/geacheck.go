// Package geacheck assembles GEA's analyzer suite into a runnable
// multichecker — the library behind cmd/geacheck. It loads packages with
// internal/analysis/load, applies every analyzer, filters //lint:gea
// suppressions, and prints findings in the familiar
// path:line:col: message (analyzer) shape. See ANALYSIS.md for the
// catalogue of analyzers and the invariants they enforce.
//
// Beyond checking, the CLI carries two auditing modes: -json emits
// machine-readable findings for CI annotation tooling, and
// -suppressions lists every //lint:gea directive in the tree and
// diagnoses the stale ones — directives whose analyzer no longer fires
// on the suppressed line, which means the code moved and the reasoned
// exemption is now covering nothing.
package geacheck

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"gea/internal/analysis"
	"gea/internal/analysis/ctlcharge"
	"gea/internal/analysis/errwrap"
	"gea/internal/analysis/load"
	"gea/internal/analysis/locksafe"
	"gea/internal/analysis/metricname"
	"gea/internal/analysis/shardpure"
	"gea/internal/analysis/spanpair"
	"gea/internal/analysis/statusmap"
)

// Analyzers returns the full suite: the seven invariant analyzers plus
// the //lint:gea directive validator.
func Analyzers() []*analysis.Analyzer {
	core := []*analysis.Analyzer{
		ctlcharge.Analyzer,
		locksafe.Analyzer,
		errwrap.Analyzer,
		spanpair.Analyzer,
		shardpure.Analyzer,
		statusmap.Analyzer,
		metricname.Analyzer,
	}
	names := make([]string, len(core))
	for i, a := range core {
		names[i] = a.Name
	}
	return append(core, analysis.NewSuppressAnalyzer(names))
}

// suiteRun is one sweep of the suite over a load pattern: the raw
// (pre-suppression) findings and every //lint:gea directive seen,
// keyed by filename. Check and the suppression audit are both views
// over it.
type suiteRun struct {
	findings []analysis.Finding
	dirs     map[string][]analysis.Directive
}

func runSuite(dir string, analyzers []*analysis.Analyzer, patterns ...string) (*suiteRun, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	run := &suiteRun{dirs: make(map[string][]analysis.Directive)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			name := pkg.Fset.Position(f.Pos()).Filename
			run.dirs[name] = analysis.ParseDirectives(pkg.Fset, f)
		}
		for _, a := range analyzers {
			diags, err := analysis.Run(a, pkg.Fset, pkg.Syntax, pkg.Types, pkg.Info)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
			}
			for _, d := range diags {
				run.findings = append(run.findings, analysis.Finding{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
	}
	return run, nil
}

// Check loads patterns from dir, runs the given analyzers, and returns
// the unsuppressed findings sorted by position.
func Check(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]analysis.Finding, error) {
	run, err := runSuite(dir, analyzers, patterns...)
	if err != nil {
		return nil, err
	}
	findings := analysis.Filter(run.findings, run.dirs)
	sortFindings(findings)
	return findings, nil
}

func sortFindings(findings []analysis.Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Position, findings[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}

// Suppression is one audited //lint:gea entry: a (directive, analyzer)
// pair, stale when that analyzer no longer fires on the directive's
// own line or the line below it — the two lines the directive covers.
// A malformed directive audits as a single entry with Malformed set.
type Suppression struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Analyzer  string `json:"analyzer,omitempty"`
	Reason    string `json:"reason,omitempty"`
	Stale     bool   `json:"stale,omitempty"`
	Malformed string `json:"malformed,omitempty"`
}

// AuditSuppressions runs the suite with suppression filtering DISABLED
// and cross-references every directive against the raw findings.
func AuditSuppressions(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Suppression, error) {
	run, err := runSuite(dir, analyzers, patterns...)
	if err != nil {
		return nil, err
	}
	// Index raw findings by (file, analyzer) -> lines that fired.
	fired := make(map[string]map[int]bool)
	for _, f := range run.findings {
		key := f.Position.Filename + "\x00" + f.Analyzer
		if fired[key] == nil {
			fired[key] = make(map[int]bool)
		}
		fired[key][f.Position.Line] = true
	}
	var audit []Suppression
	for file, dirs := range run.dirs {
		for _, d := range dirs {
			if d.Malformed != "" {
				audit = append(audit, Suppression{File: file, Line: d.Line, Malformed: d.Malformed})
				continue
			}
			for _, name := range d.Names {
				lines := fired[file+"\x00"+name]
				audit = append(audit, Suppression{
					File:     file,
					Line:     d.Line,
					Analyzer: name,
					Reason:   d.Reason,
					Stale:    !lines[d.Line] && !lines[d.Line+1],
				})
			}
		}
	}
	sort.Slice(audit, func(i, j int) bool {
		if audit[i].File != audit[j].File {
			return audit[i].File < audit[j].File
		}
		if audit[i].Line != audit[j].Line {
			return audit[i].Line < audit[j].Line
		}
		return audit[i].Analyzer < audit[j].Analyzer
	})
	return audit, nil
}

// findingJSON is the -json wire shape of one finding.
type findingJSON struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Main is the command-line entry point; it returns the process exit
// code: 0 clean, 1 findings (or stale/malformed suppressions in
// -suppressions mode), 2 usage or load failure.
func Main(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("geacheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON instead of text")
	audit := fs.Bool("suppressions", false, "audit //lint:gea directives instead of reporting findings; stale ones fail the run")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: geacheck [-list] [-only a,b] [-json] [-suppressions] [packages]\n\nMachine-enforces GEA's operator-algebra and execution-governance\ninvariants; see ANALYSIS.md. With no package patterns, checks ./...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*analysis.Analyzer
		for _, n := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(n)]
			if !ok {
				fmt.Fprintf(stderr, "geacheck: unknown analyzer %q (try -list)\n", n)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}
	if *audit {
		return runAudit(stdout, stderr, suite, *asJSON, fs.Args())
	}
	findings, err := Check(".", suite, fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "geacheck: %v\n", err)
		return 2
	}
	if *asJSON {
		out := make([]findingJSON, 0, len(findings))
		for _, f := range findings {
			out = append(out, findingJSON{
				File:     f.Position.Filename,
				Line:     f.Position.Line,
				Column:   f.Position.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "geacheck: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "geacheck: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func runAudit(stdout, stderr io.Writer, suite []*analysis.Analyzer, asJSON bool, patterns []string) int {
	audit, err := AuditSuppressions(".", suite, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "geacheck: %v\n", err)
		return 2
	}
	bad := 0
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(audit); err != nil {
			fmt.Fprintf(stderr, "geacheck: %v\n", err)
			return 2
		}
		for _, s := range audit {
			if s.Stale || s.Malformed != "" {
				bad++
			}
		}
	} else {
		for _, s := range audit {
			switch {
			case s.Malformed != "":
				fmt.Fprintf(stdout, "%s:%d: MALFORMED directive: %s\n", s.File, s.Line, s.Malformed)
				bad++
			case s.Stale:
				fmt.Fprintf(stdout, "%s:%d: STALE suppression of %s -- %s (the analyzer no longer fires here; delete the directive)\n", s.File, s.Line, s.Analyzer, s.Reason)
				bad++
			default:
				fmt.Fprintf(stdout, "%s:%d: suppresses %s -- %s\n", s.File, s.Line, s.Analyzer, s.Reason)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "geacheck: %d stale or malformed suppression(s)\n", bad)
		return 1
	}
	return 0
}
