package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestReplSurvivesPanic drives the command loop through a deliberate panic
// and asserts the loop keeps serving commands — with its session state
// intact — instead of crashing the process.
func TestReplSurvivesPanic(t *testing.T) {
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := "gen\ndebug-panic\ninfo\nquit\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	if !strings.Contains(errw.String(), "panic recovered") {
		t.Errorf("panic not surfaced to the user:\n%s", errw.String())
	}
	if r.sys == nil {
		t.Fatal("session lost across the panic")
	}
	// The post-panic "info" command ran against the surviving session.
	if !strings.Contains(out.String(), "libraries x") {
		t.Errorf("post-panic command did not run:\n%s", out.String())
	}
}

// TestReplUnknownAndSessionlessCommands checks ordinary error paths keep
// the loop alive too.
func TestReplUnknownAndSessionlessCommands(t *testing.T) {
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := "bogus\ninfo\nsave\nhelp\nquit\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	for _, want := range []string{"unknown command", "no session"} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("missing %q in error output:\n%s", want, errw.String())
		}
	}
	if !strings.Contains(out.String(), "commands:") {
		t.Error("help did not print after earlier errors")
	}
}

// TestReplSaveLoadRoundTrip saves a session from the REPL and loads it in
// a fresh loop, covering the CLI's durable save/load path.
func TestReplSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/session"
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := "gen\nmine brain\nsave " + dir + "\nquit\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("save loop: %v", err)
	}
	if errw.Len() > 0 {
		t.Fatalf("save loop errors:\n%s", errw.String())
	}

	var out2, errw2 strings.Builder
	r2 := &repl{out: &out2, errw: &errw2}
	if err := r2.run(strings.NewReader("load " + dir + "\nreport\ntree\nquit\n")); err != nil {
		t.Fatalf("load loop: %v", err)
	}
	if errw2.Len() > 0 {
		t.Fatalf("load loop errors:\n%s", errw2.String())
	}
	if !strings.Contains(out2.String(), "load clean") {
		t.Errorf("expected clean load report:\n%s", out2.String())
	}
}

// TestReplLimitCommand drives the "limit" command and a budget-bounded
// mine: an impossible budget must produce a friendly note — not an error —
// and the session must stay alive for the follow-up unlimited mine.
func TestReplLimitCommand(t *testing.T) {
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := strings.Join([]string{
		"gen",
		"limit budget 3",
		"limit",
		"mine brain",
		"limit off",
		"mine brain",
		"quit",
	}, "\n") + "\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	if errw.Len() > 0 {
		t.Fatalf("limit script errors:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "budget 3 units, deadline") {
		t.Errorf("limit did not report its setting:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "stopped by the work budget") {
		t.Errorf("budget-stopped mine not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "pure cancerous fascicle:") {
		t.Errorf("unlimited mine after limit off did not succeed:\n%s", out.String())
	}

	var errOut strings.Builder
	r2 := &repl{out: &strings.Builder{}, errw: &errOut}
	if err := r2.run(strings.NewReader("limit budget x\nlimit deadline nope\nlimit workers 0\nlimit workers many\nquit\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "limit budget N") || !strings.Contains(errOut.String(), "limit deadline DUR") {
		t.Errorf("bad limit arguments not rejected:\n%s", errOut.String())
	}
	if strings.Count(errOut.String(), "limit workers N") != 2 {
		t.Errorf("bad worker counts not rejected:\n%s", errOut.String())
	}
}

// TestReplLimitWorkers sets a worker count, checks the status line shows
// it, and runs a mine under it: the parallel evaluation must produce the
// same successful outcome as the sequential default.
func TestReplLimitWorkers(t *testing.T) {
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := strings.Join([]string{
		"gen",
		"limit workers 4",
		"limit",
		"mine brain",
		"quit",
	}, "\n") + "\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	if errw.Len() > 0 {
		t.Fatalf("workers script errors:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "worker count set to 4") {
		t.Errorf("limit workers did not confirm:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "workers 4") {
		t.Errorf("limit status does not show the worker count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "pure cancerous fascicle:") {
		t.Errorf("mine under workers 4 did not succeed:\n%s", out.String())
	}
}

// TestReplLimitWorkersErrorPaths rejects every malformed worker count —
// zero, negative, non-numeric, and a missing value — with the same usage
// message, and leaves the session's worker setting untouched.
func TestReplLimitWorkersErrorPaths(t *testing.T) {
	var out, errOut strings.Builder
	r := &repl{out: &out, errw: &errOut}
	script := strings.Join([]string{
		"limit workers 0",
		"limit workers -2",
		"limit workers many",
		"limit workers",
		"quit",
	}, "\n") + "\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	if got := strings.Count(errOut.String(), "limit workers N"); got != 4 {
		t.Errorf("want 4 usage rejections, got %d:\n%s", got, errOut.String())
	}
	if r.limits.Workers != 0 {
		t.Errorf("rejected inputs changed the worker setting to %d", r.limits.Workers)
	}
}

// TestReplTraceStatsExplain exercises the observability commands end to
// end: the off-state errors, the usage errors, and a traced mine whose
// spans and metrics are then readable through "stats" and "explain last".
func TestReplTraceStatsExplain(t *testing.T) {
	var out, errw strings.Builder
	r := &repl{out: &out, errw: &errw}
	script := strings.Join([]string{
		"stats",        // tracing off
		"explain last", // tracing off
		"explain",      // usage
		"trace",        // usage
		"trace maybe",  // usage
		"gen",
		"trace on",
		"explain last", // nothing recorded yet
		"mine brain",
		"stats",
		"explain last",
		"trace off",
		"stats", // tracing off again
		"quit",
	}, "\n") + "\n"
	if err := r.run(strings.NewReader(script)); err != nil {
		t.Fatalf("repl exited with error: %v", err)
	}
	if got := strings.Count(errw.String(), "tracing is off"); got != 3 {
		t.Errorf("want 3 tracing-off errors, got %d:\n%s", got, errw.String())
	}
	if got := strings.Count(errw.String(), "usage: trace on|off"); got != 2 {
		t.Errorf("want 2 trace usage errors, got %d:\n%s", got, errw.String())
	}
	if !strings.Contains(errw.String(), "usage: explain last") {
		t.Errorf("bare explain not rejected:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "no governed command has completed") {
		t.Errorf("explain before any traced run not reported:\n%s", errw.String())
	}
	// The traced mine fed the metrics registry and the span ring.
	if !strings.Contains(out.String(), "ops.system.FindPureFascicle.count") {
		t.Errorf("stats does not show the traced operator:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "exec.checkpoints") {
		t.Errorf("stats does not show the checkpoint hook counter:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "system.FindPureFascicle") || !strings.Contains(out.String(), "core.Mine") {
		t.Errorf("explain last does not render the span tree:\n%s", out.String())
	}
	if r.trace != nil {
		t.Error("trace off did not discard the collector")
	}
}

// TestReplInterruptCancelsOperator delivers a synthetic SIGINT mid-mine and
// asserts the command is cancelled while the loop and session survive.
func TestReplInterruptCancelsOperator(t *testing.T) {
	var out, errw strings.Builder
	sigc := make(chan os.Signal, 1)
	r := &repl{out: &out, errw: &errw, sigc: sigc}
	if err := r.run(strings.NewReader("gen\nquit\n")); err != nil {
		t.Fatal(err)
	}
	// Queue the interrupt before dispatching: the watcher started by opCtx
	// picks it up at the first checkpoint of the mining run.
	sigc <- os.Interrupt
	if err := r.safeDispatch([]string{"mine", "brain"}); err != nil {
		t.Fatalf("interrupted mine returned an error: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(out.String(), "cancelled") && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !strings.Contains(out.String(), "cancelled") {
		t.Fatalf("interrupt did not cancel the mine:\n%s\n%s", out.String(), errw.String())
	}
	if r.sys == nil {
		t.Fatal("session lost across the interrupt")
	}
	// The session is still usable afterwards.
	out.Reset()
	if err := r.safeDispatch([]string{"info"}); err != nil {
		t.Fatalf("post-interrupt command failed: %v", err)
	}
	if !strings.Contains(out.String(), "libraries x") {
		t.Errorf("post-interrupt info did not run:\n%s", out.String())
	}
}
