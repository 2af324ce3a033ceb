package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"gea/internal/sage"
)

// FuzzScreenBatch throws arbitrary bytes at the POST /ingest wire path:
// DecodeBatch, then Screen. Neither may panic, and screening is a pure
// function of the batch — two screens of one decoded batch must agree on
// every valid library and on which names were rejected, in order, however
// Go happens to iterate the count maps.
func FuzzScreenBatch(f *testing.F) {
	f.Add([]byte(`{"libraries":[{"name":"twice","tissue":"brain","counts":{"AAAAAAAAAC":1,"aaaaaaaaac":5}}]}`))
	lib := sage.NewLibrary(sage.LibraryMeta{Name: "lib01", Tissue: "brain", State: sage.Cancer})
	lib.Add(sage.MustParseTag("AAAAAAAAAC"), 12)
	lib.Add(sage.MustParseTag("ACGTACGTAC"), 3.5)
	var sample bytes.Buffer
	if err := EncodeBatch(&sample, BatchFromLibraries([]*sage.Library{lib})); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.Bytes())

	existing := map[string]bool{"old01": true}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		valid1, rejected1 := Screen(b, existing)
		valid2, rejected2 := Screen(b, existing)
		if !reflect.DeepEqual(valid1, valid2) {
			t.Fatalf("two screens of one batch disagree on the valid libraries")
		}
		if n1, n2 := rejectedNames(rejected1), rejectedNames(rejected2); !reflect.DeepEqual(n1, n2) {
			t.Fatalf("two screens of one batch rejected %q and %q", n1, n2)
		}
	})
}

func rejectedNames(rs []Rejection) []string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}
