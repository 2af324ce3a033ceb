package geacheck_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gea/internal/analysis/geacheck"
)

// repoRoot walks up from the test's package directory to the module
// root (internal/analysis/geacheck is two packages below internal).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestRepoIsClean pins the clean baseline: the whole tree must pass
// every analyzer. A violation introduced anywhere in gea/... fails
// this test, so `go test ./...` enforces the invariants even where CI
// does not run the standalone binary.
func TestRepoIsClean(t *testing.T) {
	findings, err := geacheck.Check(repoRoot(t), geacheck.Analyzers(), "gea/...")
	if err != nil {
		t.Fatalf("loading the repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("%d finding(s); fix them or add a reasoned //lint:gea suppression (see ANALYSIS.md)", len(findings))
	}
}

func TestMainList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr.String())
	}
	for _, name := range []string{"ctlcharge", "locksafe", "errwrap", "spanpair", "shardpure", "statusmap", "metricname", "suppress"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestMainUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"-only", "nosuch"}); code != 2 {
		t.Fatalf("-only nosuch exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want an unknown-analyzer message", stderr.String())
	}
}

// TestSuiteCoversProtocolAnalyzers pins the registration of the four
// protocol-conformance analyzers into the default suite, which is what
// TestRepoIsClean (and therefore `go test ./...`) runs. CI's self-check
// step asserts this test executed; dropping an analyzer from
// Analyzers() fails here, not silently in coverage numbers.
func TestSuiteCoversProtocolAnalyzers(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range geacheck.Analyzers() {
		names[a.Name] = true
	}
	for _, want := range []string{"spanpair", "shardpure", "statusmap", "metricname"} {
		if !names[want] {
			t.Errorf("analyzer %q is not registered in the geacheck suite", want)
		}
	}
}

// writeModule materialises a throwaway module in a temp dir and chdirs
// into it, so Main's "." working directory is the fixture.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.24\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// shedSource is a minimal statusmap violation: a handler writing 503
// without Retry-After. No other analyzer in the suite fires on it.
const shedSource = `package tmpmod

import "net/http"

func Shed(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "shedding", http.StatusServiceUnavailable)
}
`

func TestMainJSONFindings(t *testing.T) {
	writeModule(t, map[string]string{"shed.go": shedSource})
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"-json", "./..."}); code != 1 {
		t.Fatalf("exited %d, want 1; stderr: %s", code, stderr.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %s", len(findings), stdout.String())
	}
	f := findings[0]
	if f.Analyzer != "statusmap" || !strings.Contains(f.Message, "503 written without Retry-After") {
		t.Errorf("finding = %+v, want a statusmap Retry-After diagnostic", f)
	}
	if filepath.Base(f.File) != "shed.go" || f.Line == 0 || f.Column == 0 {
		t.Errorf("finding position %s:%d:%d does not point into shed.go", f.File, f.Line, f.Column)
	}
}

func TestMainOnlySubset(t *testing.T) {
	writeModule(t, map[string]string{"shed.go": shedSource})

	// A subset that excludes statusmap must come back clean...
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"-only", "locksafe,ctlcharge", "./..."}); code != 0 {
		t.Fatalf("-only locksafe,ctlcharge exited %d, want 0; stderr: %s stdout: %s", code, stderr.String(), stdout.String())
	}

	// ...and the subset that includes it must report the violation.
	stdout.Reset()
	stderr.Reset()
	if code := geacheck.Main(&stdout, &stderr, []string{"-only", "statusmap", "./..."}); code != 1 {
		t.Fatalf("-only statusmap exited %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "503 written without Retry-After") {
		t.Errorf("-only statusmap output missing the violation:\n%s", stdout.String())
	}
}

func TestMainSuppressionAudit(t *testing.T) {
	writeModule(t, map[string]string{"shed.go": `package tmpmod

import "net/http"

func Shed(w http.ResponseWriter, r *http.Request) {
	//lint:gea statusmap -- load shedding; clients use their own backoff
	http.Error(w, "shedding", http.StatusServiceUnavailable)
}

//lint:gea spanpair -- kept from an old revision of this file
var Answer = 42

//lint:gea locksafe
var Other = 43
`})
	var stdout, stderr bytes.Buffer
	code := geacheck.Main(&stdout, &stderr, []string{"-suppressions", "./..."})
	if code != 1 {
		t.Fatalf("-suppressions exited %d, want 1 (one stale, one malformed); stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "suppresses statusmap -- load shedding") {
		t.Errorf("live suppression not listed:\n%s", out)
	}
	if !strings.Contains(out, "STALE suppression of spanpair") {
		t.Errorf("stale suppression not diagnosed:\n%s", out)
	}
	if !strings.Contains(out, "MALFORMED directive") {
		t.Errorf("malformed directive not diagnosed:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "stale or malformed suppression(s)") {
		t.Errorf("stderr = %q, want a stale/malformed summary", stderr.String())
	}
}

func TestMainSuppressionAuditJSON(t *testing.T) {
	writeModule(t, map[string]string{"lib.go": `package tmpmod

//lint:gea errwrap -- nothing fires here any more
var Answer = 42
`})
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"-suppressions", "-json", "./..."}); code != 1 {
		t.Fatalf("-suppressions -json exited %d, want 1; stderr: %s", code, stderr.String())
	}
	var audit []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Reason   string `json:"reason"`
		Stale    bool   `json:"stale"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &audit); err != nil {
		t.Fatalf("-suppressions -json output is not an audit array: %v\n%s", err, stdout.String())
	}
	if len(audit) != 1 || !audit[0].Stale || audit[0].Analyzer != "errwrap" {
		t.Errorf("audit = %+v, want one stale errwrap entry", audit)
	}
}

// TestMainCleanSuppressedModule pins the filtering path end to end: a
// reasoned live directive silences the only finding, so the check run
// is clean while the audit still lists the directive as live.
func TestMainCleanSuppressedModule(t *testing.T) {
	writeModule(t, map[string]string{"shed.go": `package tmpmod

import "net/http"

func Shed(w http.ResponseWriter, r *http.Request) {
	//lint:gea statusmap -- load shedding; clients use their own backoff
	http.Error(w, "shedding", http.StatusServiceUnavailable)
}
`})
	var stdout, stderr bytes.Buffer
	if code := geacheck.Main(&stdout, &stderr, []string{"./..."}); code != 0 {
		t.Fatalf("check exited %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := geacheck.Main(&stdout, &stderr, []string{"-suppressions", "./..."}); code != 0 {
		t.Fatalf("audit exited %d, want 0; stdout: %s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "suppresses statusmap") {
		t.Errorf("audit did not list the live directive:\n%s", stdout.String())
	}
}
