package ingest

import (
	"slices"

	"gea/internal/clean"
	"gea/internal/exec"
	"gea/internal/sage"
)

// View is one immutable corpus generation: the raw corpus it was built
// from and the cleaned dataset reads are served from. Nothing mutates a
// View after Build returns it, so a reader holding the pointer sees one
// consistent generation for as long as it keeps it.
type View struct {
	// Raw is the screened, uncleaned corpus in append order. The next
	// generation is built from it plus the appended batch.
	Raw *sage.Corpus
	// Data is the dense dataset over the kept-tag universe.
	Data *sage.Dataset
	// Report is the cleaning report for the whole corpus.
	Report *clean.Report
}

// Build cleans the whole raw corpus and assembles one generation from
// it. Library IDs are numbered by position (1-based), so any path that
// builds the same raw corpus gets the identical dataset. An append
// builds from the previous generation's Raw followed by the batch: a
// batch that promotes a tag into the keep set rescales every old
// library expressing it, so the whole corpus is cleaned again anyway.
// A budget stop or cancellation is an error, never a partial view.
func Build(c *exec.Ctl, raw *sage.Corpus, opts clean.Options) (_ *View, err error) {
	var partial bool
	sp := c.StartSpan("ingest.Build")
	sp.SetInput("%d libraries", len(raw.Libraries))
	defer c.EndSpan(sp, &partial, &err)

	cleaned, rep, err := clean.Corpus(c, raw, opts)
	if err != nil {
		return nil, err
	}
	//lint:gea ctlcharge -- O(libraries) ID numbering after the metered clean
	for i, l := range cleaned.Libraries {
		l.Meta.ID = i + 1
	}
	return &View{
		Raw:    &sage.Corpus{Libraries: slices.Clone(raw.Libraries)},
		Data:   sage.Build(cleaned),
		Report: rep,
	}, nil
}
