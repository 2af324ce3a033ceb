package analysis_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"

	"gea/internal/analysis"
	"gea/internal/analysis/antest"
)

// TestSuppressAnalyzer runs the directive validator over its golden
// corpora with the real analyzer-name set the multichecker would use.
func TestSuppressAnalyzer(t *testing.T) {
	a := analysis.NewSuppressAnalyzer([]string{
		"ctlcharge", "locksafe", "errwrap", "spanpair", "shardpure", "statusmap", "metricname",
	})
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	antest.Run(t, testdata, a, "suppressbad", "suppressgood")
}

func parseOne(t *testing.T, src string) (*token.FileSet, []analysis.Directive) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dir_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, analysis.ParseDirectives(fset, f)
}

func TestParseDirectives(t *testing.T) {
	tests := []struct {
		name      string
		comment   string
		names     []string
		reason    string
		malformed bool
	}{
		{"single", "//lint:gea spanpair -- fault injection", []string{"spanpair"}, "fault injection", false},
		{"multi", "//lint:gea ctlcharge, locksafe -- bounded loop", []string{"ctlcharge", "locksafe"}, "bounded loop", false},
		{"no reason", "//lint:gea spanpair", nil, "", true},
		{"blank reason", "//lint:gea spanpair -- ", nil, "", true},
		{"no names", "//lint:gea -- some reason", nil, "", true},
		{"empty name in list", "//lint:gea a,,b -- reason", nil, "", true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			src := "package p\n\n" + tt.comment + "\nvar X = 1\n"
			_, dirs := parseOne(t, src)
			if len(dirs) != 1 {
				t.Fatalf("got %d directives, want 1", len(dirs))
			}
			d := dirs[0]
			if (d.Malformed != "") != tt.malformed {
				t.Fatalf("Malformed = %q, want malformed=%v", d.Malformed, tt.malformed)
			}
			if tt.malformed {
				return
			}
			if len(d.Names) != len(tt.names) {
				t.Fatalf("Names = %v, want %v", d.Names, tt.names)
			}
			for i := range tt.names {
				if d.Names[i] != tt.names[i] {
					t.Errorf("Names[%d] = %q, want %q", i, d.Names[i], tt.names[i])
				}
			}
			if d.Reason != tt.reason {
				t.Errorf("Reason = %q, want %q", d.Reason, tt.reason)
			}
		})
	}
}

func TestParseDirectivesIgnoresOtherNamespaces(t *testing.T) {
	_, dirs := parseOne(t, "package p\n\n//lint:file-ignored reasons\n//lint:geaxyz not ours\nvar X = 1\n")
	if len(dirs) != 0 {
		t.Fatalf("got %d directives from foreign namespaces, want 0", len(dirs))
	}
}

func TestSuppressesScope(t *testing.T) {
	_, dirs := parseOne(t, "package p\n\n//lint:gea spanpair -- deliberate\nvar X = 1\n")
	if len(dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(dirs))
	}
	d := dirs[0] // on line 3
	if !d.Suppresses("spanpair", 3) || !d.Suppresses("spanpair", 4) {
		t.Error("directive should cover its own line and the next")
	}
	if d.Suppresses("spanpair", 2) || d.Suppresses("spanpair", 5) {
		t.Error("directive must not cover lines outside its two-line scope")
	}
	if d.Suppresses("ctlcharge", 4) {
		t.Error("directive must only cover the analyzers it names")
	}
	if d.Suppresses(analysis.SuppressName, 4) {
		t.Error("the suppress analyzer must not be suppressible")
	}
}

func TestMalformedSuppressesNothing(t *testing.T) {
	_, dirs := parseOne(t, "package p\n\n//lint:gea spanpair\nvar X = 1\n")
	if len(dirs) != 1 || dirs[0].Malformed == "" {
		t.Fatalf("want one malformed directive, got %+v", dirs)
	}
	if dirs[0].Suppresses("spanpair", 4) {
		t.Error("malformed directive must suppress nothing")
	}
}

func TestFilter(t *testing.T) {
	mk := func(file string, line int, an string) analysis.Finding {
		f := analysis.Finding{Analyzer: an, Message: "m"}
		f.Position.Filename = file
		f.Position.Line = line
		return f
	}
	dirs := map[string][]analysis.Directive{
		"a.go": {{Line: 10, Names: []string{"spanpair"}, Reason: "r"}},
	}
	findings := []analysis.Finding{
		mk("a.go", 11, "spanpair"), // silenced (line+1)
		mk("a.go", 11, "errwrap"),  // different analyzer
		mk("a.go", 12, "spanpair"), // out of scope
		mk("b.go", 11, "spanpair"), // different file
	}
	kept := analysis.Filter(findings, dirs)
	if len(kept) != 3 {
		t.Fatalf("kept %d findings, want 3: %v", len(kept), kept)
	}
	for _, f := range kept {
		if f.Position.Filename == "a.go" && f.Position.Line == 11 && f.Analyzer == "spanpair" {
			t.Error("suppressed finding survived the filter")
		}
	}
}
