package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gea/internal/atomicio"
	"gea/internal/iofault"
	"gea/internal/sage"
)

// noRetry fails fast: crash walks want every injected fault surfaced, not
// absorbed.
func noRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 1, Sleep: func(time.Duration) {}}
}

// fastRetry absorbs transient faults without sleeping, so fault walks
// stay fast.
func fastRetry() RetryPolicy {
	p := DefaultRetry()
	p.Sleep = func(time.Duration) {}
	return p
}

// testBatch builds a valid wire batch of n libraries named prefix1..n.
func testBatch(prefix string, n int, bump float64) Batch {
	b := Batch{}
	for i := 1; i <= n; i++ {
		b.Libraries = append(b.Libraries, BatchLibrary{
			Name:   fmt.Sprintf("%s%02d", prefix, i),
			Tissue: "brain",
			Counts: map[string]float64{
				"AAAAAAAAAC": float64(10*i) + bump,
				"ACGTACGTAC": 3 + bump,
			},
		})
	}
	return b
}

// namesOf lists a corpus's library names in index order.
func namesOf(c *sage.Corpus) []string {
	names := make([]string, 0, len(c.Libraries))
	for _, l := range c.Libraries {
		names = append(names, l.Meta.Name)
	}
	return names
}

// sameNames reports whether a corpus holds exactly these names in order.
func sameNames(c *sage.Corpus, want []string) bool {
	got := namesOf(c)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// copyDir replicates a store directory so each fault iteration starts
// from the same committed state.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copyDir %s -> %s: %v", src, dst, err)
	}
}

// seedStore commits one batch into a fresh store dir and returns the dir
// and the committed names.
func seedStore(t *testing.T) (string, []string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	st, _, _, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := st.Ingest(testBatch("old", 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gen == "" || len(rep.Appended) != 3 {
		t.Fatalf("seed commit incomplete: %+v", rep)
	}
	return dir, rep.Appended
}

// TestStoreCrashWalk enumerates every filesystem operation of one full
// Ingest — open, quarantine writes, per-library writes, the index write,
// the CURRENT flip and the generation sweep — and for a crash injected at
// each one asserts the reopened store holds either exactly the old corpus
// or exactly old+appended, never a torn mix; and that a clean retry of
// the same append always lands the new state.
func TestStoreCrashWalk(t *testing.T) {
	seed, oldNames := seedStore(t)
	// The appended batch carries one schema-violating submission, so the
	// walk also crosses the quarantine writes.
	b := testBatch("new", 2, 100)
	b.Libraries = append(b.Libraries, BatchLibrary{Name: "broken", Tissue: "", Counts: map[string]float64{"AAAAAAAAAC": 1}})
	newNames := append(append([]string(nil), oldNames...), "new01", "new02")

	// Count the operations of one full open+ingest.
	counter := iofault.New(atomicio.OS{}, iofault.Config{})
	{
		dir := filepath.Join(t.TempDir(), "store")
		copyDir(t, seed, dir)
		st, _, _, err := Open(counter, dir, noRetry())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	total := counter.Ops()
	// Open reads, quarantine writes, two library commits, the index and
	// CURRENT: a shallow count means the walk is not really enumerating
	// the append path.
	if total < 30 {
		t.Fatalf("implausible op count %d (trace %v)", total, counter.Trace())
	}

	sawOld, sawNew := false, false
	for crash := 1; crash <= total; crash++ {
		dir := filepath.Join(t.TempDir(), "store")
		copyDir(t, seed, dir)
		fsys := iofault.New(atomicio.OS{}, iofault.Config{CrashAt: crash})
		var ingErr error
		st, _, _, openErr := Open(fsys, dir, noRetry())
		if openErr == nil {
			_, ingErr = st.Ingest(b)
		}

		// Crash recovery: reopen on a clean filesystem.
		st2, corpus, problems, err := Open(atomicio.OS{}, dir, noRetry())
		if err != nil {
			t.Fatalf("crash at op %d: reopen failed: %v", crash, err)
		}
		if len(problems) > 0 {
			t.Fatalf("crash at op %d: reopen salvaged problems %v — commit exposed a torn artifact", crash, problems)
		}
		switch {
		case sameNames(corpus, oldNames):
			sawOld = true
			if openErr == nil && ingErr == nil {
				t.Errorf("crash at op %d: ingest reported success but old corpus reopened", crash)
			}
		case sameNames(corpus, newNames):
			sawNew = true
		default:
			t.Fatalf("crash at op %d: reopened neither old nor new corpus: %v", crash, namesOf(corpus))
		}

		// Retrying the whole append on the recovered store must converge
		// on old+appended (the duplicate-name rejections when the crash
		// landed after the commit are quarantine outcomes, not errors).
		if _, err := st2.Ingest(b); err != nil {
			t.Fatalf("crash at op %d: retry ingest failed: %v", crash, err)
		}
		if _, got, _, err := Open(atomicio.OS{}, dir, noRetry()); err != nil || !sameNames(got, newNames) {
			t.Fatalf("crash at op %d: retry did not restore the new corpus (%v)", crash, err)
		}
	}
	if !sawOld {
		t.Error("no crash point preserved the old corpus — commit happens too early")
	}
	if !sawNew {
		t.Error("no crash point yielded the new corpus — commit never became visible")
	}
}

// TestStoreTransientFaultWalk injects one recoverable fault (ENOSPC, then
// a short write) at every operation of the append path under the retrying
// policy: a single transient fault must always be absorbed — the ingest
// succeeds and the store holds old+appended.
func TestStoreTransientFaultWalk(t *testing.T) {
	seed, oldNames := seedStore(t)
	b := testBatch("new", 2, 100)
	newNames := append(append([]string(nil), oldNames...), "new01", "new02")

	counter := iofault.New(atomicio.OS{}, iofault.Config{})
	{
		dir := filepath.Join(t.TempDir(), "store")
		copyDir(t, seed, dir)
		st, _, _, err := Open(counter, dir, noRetry())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}

	absorbed := 0
	for _, kind := range []string{"enospc", "shortwrite"} {
		for op := 1; op <= counter.Ops(); op++ {
			cfg := iofault.Config{FailAt: op, FailErr: iofault.ErrNoSpace}
			if kind == "shortwrite" {
				cfg = iofault.Config{ShortWriteAt: op}
			}
			dir := filepath.Join(t.TempDir(), "store")
			copyDir(t, seed, dir)
			st, _, _, err := Open(iofault.New(atomicio.OS{}, cfg), dir, fastRetry())
			if err != nil {
				t.Fatalf("%s at op %d: open did not absorb the fault: %v", kind, op, err)
			}
			if _, err := st.Ingest(b); err != nil {
				t.Fatalf("%s at op %d: ingest did not absorb the fault: %v", kind, op, err)
			}
			// Faults consumed by the best-effort generation sweep are
			// invisible; everywhere else the store must count the retry.
			absorbed += st.Retries
			if got, err := sage.LoadCorpus(dir); err != nil || !sameNames(got, newNames) {
				t.Fatalf("%s at op %d: store does not hold old+appended (%v)", kind, op, err)
			}
		}
	}
	if absorbed == 0 {
		t.Error("no fault was ever absorbed by a retry — the walk tested nothing")
	}
}

// TestStoreCorruptionFailsFast pins the taxonomy's terminal side: a store
// whose CURRENT index frame is corrupt must fail open immediately, without
// burning retry attempts on damage a retry cannot fix.
func TestStoreCorruptionFailsFast(t *testing.T) {
	seed, _ := seedStore(t)
	gen, err := atomicio.CurrentGen(atomicio.OS{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(seed, gen, "sageName.txt")
	data, err := os.ReadFile(idx)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte: the frame's checksum no longer matches.
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(idx, data, 0o644); err != nil {
		t.Fatal(err)
	}

	attempts := 0
	p := fastRetry()
	p.OnRetry = func(string, int, error) { attempts++ }
	_, _, _, err = Open(atomicio.OS{}, seed, p)
	if err == nil {
		t.Fatal("corrupt index opened cleanly")
	}
	if !errors.Is(err, atomicio.ErrChecksum) {
		t.Fatalf("corruption surfaced as %v, want ErrChecksum", err)
	}
	if Classify(err) != ClassCorrupt {
		t.Errorf("Classify(%v) = %v, want corrupt", err, Classify(err))
	}
	if attempts != 0 {
		t.Errorf("corruption was retried %d times; terminal errors must fail fast", attempts)
	}
}

// TestStoreQuarantine screens a batch carrying every schema-violation
// class and asserts the rejects land in a numbered quarantine dir with a
// report and resubmittable payloads while the valid remainder commits.
func TestStoreQuarantine(t *testing.T) {
	dir, oldNames := seedStore(t)
	st, _, _, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatal(err)
	}

	b := testBatch("ok", 2, 50)
	bad := []BatchLibrary{
		{Name: "", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 1}},
		{Name: "slash/y", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 1}},
		{Name: oldNames[0], Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 1}},
		{Name: "ok01", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 1}},
		{Name: "noTissue", Tissue: "", Counts: map[string]float64{"AAAAAAAAAC": 1}},
		{Name: "noCounts", Tissue: "brain", Counts: nil},
		{Name: "badTag", Tissue: "brain", Counts: map[string]float64{"XYZ": 1}},
		{Name: "negCount", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": -2}},
		{Name: "twoSpellings", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 1, "aaaaaaaaac": 5}},
	}
	b.Libraries = append(b.Libraries, bad...)

	rep, err := st.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Appended) != 2 || len(rep.Rejected) != len(bad) {
		t.Fatalf("appended %v, rejected %d, want 2 and %d", rep.Appended, len(rep.Rejected), len(bad))
	}
	if rep.QuarantineDir == "" {
		t.Fatal("no quarantine dir reported")
	}
	report, err := os.ReadFile(filepath.Join(rep.QuarantineDir, "report.txt"))
	if err != nil {
		t.Fatalf("quarantine report missing: %v", err)
	}
	for _, want := range []string{"already in the corpus", "duplicate name within the batch", "empty tissue", "bad tag", "invalid count",
		"tag AAAAAAAAAC is named twice"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("quarantine report lacks %q:\n%s", want, report)
		}
	}
	// Each named reject's payload must round-trip through the wire codec
	// so an operator can fix and resubmit it.
	payloads, err := filepath.Glob(filepath.Join(rep.QuarantineDir, "lib-*.json"))
	if err != nil || len(payloads) == 0 {
		t.Fatalf("no quarantined payloads found (%v)", err)
	}
	for _, p := range payloads {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBatch(f); err != nil {
			t.Errorf("quarantined payload %s does not decode: %v", p, err)
		}
		f.Close()
	}

	// Re-ingesting the same batch is all rejections now — and commits no
	// generation.
	gen := st.Gen()
	rep2, err := st.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Gen != "" || len(rep2.Appended) != 0 {
		t.Fatalf("replayed batch committed %q", rep2.Gen)
	}
	if st.Gen() != gen {
		t.Fatalf("generation moved from %q to %q on an all-rejected batch", gen, st.Gen())
	}
	if rep2.QuarantineDir == rep.QuarantineDir {
		t.Error("second quarantine reused the first dir instead of a fresh number")
	}
}

// TestStoreMultiGenSalvage corrupts a library file in an OLD generation of
// a three-generation store and asserts the salvage report names the exact
// generation dir holding the damage, while the rest of the corpus loads
// and the damaged name stays reserved.
func TestStoreMultiGenSalvage(t *testing.T) {
	dir, _ := seedStore(t) // gen-000001: old01..old03
	st, _, _, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(testBatch("mid", 2, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(testBatch("new", 2, 20)); err != nil {
		t.Fatal(err)
	}

	// Damage one library the FIRST generation committed.
	victim := filepath.Join(dir, "gen-000001", "old02.sage")
	if err := os.WriteFile(victim, []byte("garbage, not a framed artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, corpus, problems, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatalf("salvage open failed: %v", err)
	}
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly the damaged library", problems)
	}
	if problems[0].Gen != "gen-000001" {
		t.Errorf("Problem.Gen = %q, want gen-000001 (the generation that committed the damage)", problems[0].Gen)
	}
	if !strings.Contains(problems[0].Path, "old02") {
		t.Errorf("Problem.Path = %q does not name the damaged library", problems[0].Path)
	}
	if problems[0].Phase != sage.PhaseRead {
		t.Errorf("Problem.Phase = %q, want %q (framing damage is read-phase)", problems[0].Phase, sage.PhaseRead)
	}
	want := []string{"old01", "old03", "mid01", "mid02", "new01", "new02"}
	got := namesOf(corpus)
	if len(got) != len(want) {
		t.Fatalf("salvaged corpus %v, want %v", got, want)
	}
	for _, name := range got {
		if name == "old02" {
			t.Error("damaged library leaked into the salvaged corpus")
		}
	}
	// The damaged name stays reserved: resubmitting it is a rejection,
	// not a silent shadow of the broken artifact.
	if !st2.Names()["old02"] {
		t.Error("damaged library's name was not reserved")
	}
	rep, err := st2.Ingest(Batch{Libraries: []BatchLibrary{{Name: "old02", Tissue: "brain", Counts: map[string]float64{"AAAAAAAAAC": 5}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rejected) != 1 {
		t.Errorf("resubmission of a damaged name was not rejected: %+v", rep)
	}
}

// TestRetryPolicyTaxonomy pins Do's behavior per class: transient errors
// retry with backoff until the budget runs out, terminal errors return on
// the first attempt.
func TestRetryPolicyTaxonomy(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 15 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) }}

	calls := 0
	err := p.Do("step", func() error { calls++; return errors.New("flaky") })
	if err == nil || calls != 4 {
		t.Fatalf("transient error: %d calls (err %v), want 4", calls, err)
	}
	if len(slept) != 3 || slept[0] != 10*time.Millisecond || slept[1] != 15*time.Millisecond || slept[2] != 15*time.Millisecond {
		t.Errorf("backoff schedule %v, want [10ms 15ms 15ms] (doubling, capped)", slept)
	}

	calls = 0
	err = p.Do("step", func() error { calls++; return fmt.Errorf("read: %w", atomicio.ErrChecksum) })
	if err == nil || calls != 1 {
		t.Fatalf("corrupt error: %d calls, want fail-fast 1", calls)
	}
	calls = 0
	err = p.Do("step", func() error { calls++; return &SchemaError{Reason: "nope"} })
	if err == nil || calls != 1 {
		t.Fatalf("schema error: %d calls, want fail-fast 1", calls)
	}

	calls = 0
	if err := p.Do("step", func() error {
		calls++
		if calls == 1 {
			return iofault.ErrInjected
		}
		return nil
	}); err != nil {
		t.Fatalf("recoverable fault not absorbed: %v", err)
	}
}

// TestSalvageDecodePhase damages a library *inside* the atomicio frame —
// valid checksum, unparsable payload — and asserts the problem reports
// the decode phase: the writer produced the damage before the commit
// boundary, it did not rot on disk.
func TestSalvageDecodePhase(t *testing.T) {
	dir, _ := seedStore(t)
	victim := filepath.Join(dir, "gen-000001", "old02.sage")
	err := atomicio.WriteFileFunc(atomicio.OS{}, victim, func(w io.Writer) error {
		_, err := io.WriteString(w, "framed correctly, but not a library\n")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	_, corpus, problems, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatalf("salvage open failed: %v", err)
	}
	if len(problems) != 1 {
		t.Fatalf("problems = %v, want exactly the damaged library", problems)
	}
	p := problems[0]
	if p.Phase != sage.PhaseDecode {
		t.Errorf("Problem.Phase = %q, want %q (checksum verified, payload did not parse)", p.Phase, sage.PhaseDecode)
	}
	if p.Gen != "gen-000001" || !strings.Contains(p.Path, "old02") {
		t.Errorf("Problem = %v, want old02 blamed on gen-000001", p)
	}
	for _, part := range []string{"old02", "gen-000001", "decode phase"} {
		if !strings.Contains(p.String(), part) {
			t.Errorf("Problem.String() = %q, missing %q (operators triage from this line)", p.String(), part)
		}
	}
	if sameNames(corpus, []string{"old01", "old02", "old03"}) {
		t.Error("damaged library leaked into the salvaged corpus")
	}
}

// TestQuarantinePayloadResubmission pins the operator loop the quarantine
// exists for: a rejected submission's payload must round-trip through
// DecodeBatch byte-faithfully, so fixing the recorded violation and
// resubmitting the decoded batch lands the library in the corpus.
func TestQuarantinePayloadResubmission(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, _, _, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	broken := BatchLibrary{Name: "qlib", Counts: map[string]float64{"AAAAAAAAAC": 7, "ACGTACGTAC": 3}}
	b := testBatch("good", 1, 0)
	b.Libraries = append(b.Libraries, broken)

	rep, err := st.Ingest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Appended) != 1 || rep.Appended[0] != "good01" {
		t.Fatalf("appended %v, want the valid remainder [good01]", rep.Appended)
	}
	if len(rep.Rejected) != 1 || rep.QuarantineDir == "" {
		t.Fatalf("report %+v, want one quarantined rejection", rep)
	}

	// The quarantined payload is itself an atomicio-framed batch document.
	raw, err := atomicio.ReadFile(atomicio.OS{}, filepath.Join(rep.QuarantineDir, "lib-001.json"))
	if err != nil {
		t.Fatalf("reading quarantined payload: %v", err)
	}
	resub, err := DecodeBatch(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("quarantined payload does not decode as a batch: %v", err)
	}
	if len(resub.Libraries) != 1 || !reflect.DeepEqual(resub.Libraries[0], broken) {
		t.Fatalf("round-tripped payload %+v, want the submission %+v", resub.Libraries, broken)
	}

	// Operator fix: supply the missing tissue, resubmit the decoded batch.
	resub.Libraries[0].Tissue = "liver"
	rep2, err := st.Ingest(resub)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Appended) != 1 || rep2.Appended[0] != "qlib" || len(rep2.Rejected) != 0 {
		t.Fatalf("resubmission report %+v, want qlib appended cleanly", rep2)
	}

	// Reopen from disk: both libraries live, original counts intact.
	_, corpus, problems, err := Open(atomicio.OS{}, dir, noRetry())
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 || !sameNames(corpus, []string{"good01", "qlib"}) {
		t.Fatalf("reopened corpus %v (problems %v), want [good01 qlib]", namesOf(corpus), problems)
	}
	for _, l := range corpus.Libraries {
		if l.Meta.Name != "qlib" {
			continue
		}
		tag, _ := sage.ParseTag("AAAAAAAAAC")
		if l.Counts[tag] != 7 {
			t.Errorf("resubmitted count = %g, want 7 (payload fidelity)", l.Counts[tag])
		}
	}
}
