// Package ingest implements crash-safe streaming ingestion: an append
// path that commits batches of new libraries through atomicio generation
// dirs and builds each generation's cleaned dataset for serving.
//
// The package splits into three layers:
//
//   - Store (store.go): the durable side. A corpus directory is grown by
//     appending batches as new generations whose index references older
//     libraries in the generations that committed them, so an append
//     writes O(batch) files; CURRENT flips as the single commit point and
//     a crash at any write boundary rolls back to the previous
//     generation. Invalid submissions land in a quarantine dir with a
//     salvage report instead of poisoning the corpus.
//
//   - View (view.go): the in-memory side. A View holds one generation's
//     raw corpus, cleaned dataset and cleaning report. Build makes one
//     by cleaning the whole raw corpus with clean.Corpus, the cleaning
//     the frozen load path runs. An append builds a new View and never
//     mutates the old one, so in-flight readers keep a consistent
//     generation.
//
//   - this file: the failure taxonomy. Every fallible store step is
//     wrapped in a RetryPolicy that retries transient I/O faults
//     (ENOSPC-ish errors, generic write failures) with exponential
//     backoff and fails fast on corruption (checksum/truncation, which
//     retrying cannot fix) and schema violations (which quarantine, not
//     retry, must handle).
package ingest

import (
	"errors"
	"fmt"
	"time"

	"gea/internal/atomicio"
)

// Class sorts an append-path failure into the retry taxonomy.
type Class int

const (
	// ClassTransient faults (full disk, injected I/O error, generic
	// write failure) may clear on their own; the policy retries them.
	ClassTransient Class = iota
	// ClassCorrupt faults (checksum mismatch, truncated frame) are
	// durable damage; retrying re-reads the same bad bytes, so the
	// append fails fast and the artifact is left to salvage tooling.
	ClassCorrupt
	// ClassSchema faults are invalid submissions (bad tag, negative
	// count, duplicate name). They are the submitter's problem: the
	// library is quarantined with a report and the rest of the batch
	// proceeds.
	ClassSchema
)

func (c Class) String() string {
	switch c {
	case ClassCorrupt:
		return "corrupt"
	case ClassSchema:
		return "schema"
	default:
		return "transient"
	}
}

// SchemaError describes one library rejected before it touched the store.
type SchemaError struct {
	// Lib is the submitted library name ("" when the name itself is the
	// problem).
	Lib string
	// Reason says what was wrong.
	Reason string
}

func (e *SchemaError) Error() string {
	if e.Lib == "" {
		return fmt.Sprintf("ingest: schema: %s", e.Reason)
	}
	return fmt.Sprintf("ingest: schema: library %q: %s", e.Lib, e.Reason)
}

// Classify maps an error onto the retry taxonomy. Corruption sentinels
// and schema errors are terminal; everything else — including the
// injected transients of internal/iofault and real ENOSPC — is assumed
// recoverable and worth retrying.
func Classify(err error) Class {
	if err == nil {
		return ClassTransient
	}
	if errors.Is(err, atomicio.ErrChecksum) || errors.Is(err, atomicio.ErrTruncated) {
		return ClassCorrupt
	}
	var se *SchemaError
	if errors.As(err, &se) {
		return ClassSchema
	}
	return ClassTransient
}

// RetryPolicy retries transient failures with exponential backoff and
// fails fast on anything Classify calls terminal.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per step (first attempt
	// included). <= 0 means DefaultRetry's setting.
	MaxAttempts int
	// BaseDelay is the sleep before the first retry; it doubles per
	// retry up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Sleep replaces time.Sleep, letting tests walk hundreds of fault
	// replays without waiting. Nil means time.Sleep.
	Sleep func(time.Duration)
	// OnRetry, if set, observes each retry (step label, 1-based attempt
	// that failed, the error). The store feeds ingest.retries metrics
	// through this.
	OnRetry func(step string, attempt int, err error)
}

// DefaultRetry is the store's default policy: four attempts, 10ms base
// backoff capped at 500ms.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
}

// Do runs fn under the policy. Terminal errors (corrupt, schema) return
// immediately; transient errors retry with backoff until attempts run
// out, and the last error is returned wrapped with the step label.
func (p RetryPolicy) Do(step string, fn func() error) error {
	attempts := p.MaxAttempts
	if attempts <= 0 {
		attempts = DefaultRetry().MaxAttempts
	}
	delay := p.BaseDelay
	if delay <= 0 {
		delay = DefaultRetry().BaseDelay
	}
	maxDelay := p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = DefaultRetry().MaxDelay
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if Classify(err) != ClassTransient {
			return fmt.Errorf("ingest: %s: %w", step, err)
		}
		if attempt == attempts {
			break
		}
		if p.OnRetry != nil {
			p.OnRetry(step, attempt, err)
		}
		sleep(delay)
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
	return fmt.Errorf("ingest: %s: %d attempts exhausted: %w", step, attempts, err)
}
