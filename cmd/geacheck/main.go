// Command geacheck is GEA's own static-analysis suite: a multichecker
// that machine-enforces the operator-algebra and execution-governance
// invariants the tests do not catch (checkpointed loops, lock
// discipline, sentinel wrapping, span pairing, shard slot ownership,
// HTTP status mapping, the metric manifest) plus the //lint:gea
// suppression grammar.
//
// Usage, from the module root:
//
//	go run ./cmd/geacheck ./...
//	go run ./cmd/geacheck -list
//	go run ./cmd/geacheck -only ctlcharge,locksafe ./internal/...
//
// Exit status is 0 when clean, 1 when findings were printed, 2 on a
// usage or load error. ANALYSIS.md catalogues every analyzer, an
// example diagnostic, and how to suppress a false positive.
package main

import (
	"os"

	"gea/internal/analysis/geacheck"
)

func main() {
	os.Exit(geacheck.Main(os.Stdout, os.Stderr, os.Args[1:]))
}
