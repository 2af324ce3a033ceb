package sage

import (
	"fmt"
	"slices"
	"sort"
)

// NeoplasticState records whether a library was derived from cancerous or
// normal tissue.
type NeoplasticState int

// Neoplastic states.
const (
	Normal NeoplasticState = iota
	Cancer
)

// String renders the state as in the thesis's Libraries relation.
func (s NeoplasticState) String() string {
	if s == Cancer {
		return "cancer"
	}
	return "normal"
}

// Source records how the sample was obtained: bulk tissue taken directly from
// a body, or a cell line grown in vitro.
type Source int

// Sample sources.
const (
	BulkTissue Source = iota
	CellLine
)

// String renders the source as in the thesis's Libraries relation.
func (s Source) String() string {
	if s == CellLine {
		return "cell line"
	}
	return "bulk tissue"
}

// Property is a value a fascicle purity check can be run against
// (Section 4.3.1.2: cancer, normal, bulk tissue, or cell line).
type Property int

// Purity-check properties.
const (
	PropCancer Property = iota
	PropNormal
	PropBulkTissue
	PropCellLine
)

// String names the property as the purity-check GUI does.
func (p Property) String() string {
	switch p {
	case PropCancer:
		return "cancer"
	case PropNormal:
		return "normal"
	case PropBulkTissue:
		return "bulk tissue"
	default:
		return "cell line"
	}
}

// ParseProperty parses a purity-check property name.
func ParseProperty(s string) (Property, error) {
	switch s {
	case "cancer":
		return PropCancer, nil
	case "normal":
		return PropNormal, nil
	case "bulk tissue", "bulk":
		return PropBulkTissue, nil
	case "cell line", "cellline":
		return PropCellLine, nil
	}
	return 0, fmt.Errorf("sage: unknown property %q", s)
}

// LibraryMeta is the auxiliary data stored per library in the Libraries
// relation of Appendix IV: identity, tissue type, neoplastic state, sample
// source, and the total / unique tag counts of the raw library.
type LibraryMeta struct {
	ID     int    // 1-based library ID, as in the thesis (1..100)
	Name   string // e.g. "SAGE_Duke_H1020"
	Tissue string // e.g. "brain"
	State  NeoplasticState
	Source Source
	// TotalTags is the sum of all count values in the library; UniqueTags is
	// the number of distinct tags detected.
	TotalTags  float64
	UniqueTags int
}

// HasProperty reports whether the library satisfies a purity-check property.
func (m LibraryMeta) HasProperty(p Property) bool {
	switch p {
	case PropCancer:
		return m.State == Cancer
	case PropNormal:
		return m.State == Normal
	case PropBulkTissue:
		return m.Source == BulkTissue
	default:
		return m.Source == CellLine
	}
}

// Library is one SAGE expression profile: a sparse map from tag to count.
// Counts are float64 because normalization (scaling every library to 300,000
// total tags) produces fractional values.
type Library struct {
	Meta   LibraryMeta
	Counts map[TagID]float64
}

// NewLibrary returns an empty library with the given metadata.
func NewLibrary(meta LibraryMeta) *Library {
	return &Library{Meta: meta, Counts: make(map[TagID]float64)}
}

// Add increases the count of tag by n.
func (l *Library) Add(tag TagID, n float64) {
	if n == 0 {
		return
	}
	l.Counts[tag] += n
}

// Count returns the expression level of tag (0 when absent).
func (l *Library) Count(tag TagID) float64 { return l.Counts[tag] }

// Total returns the sum of all count values (the "total number of tags").
// The sum runs in ascending tag order so the float result is bit-identical
// across processes — map-order accumulation differs in the last ulp from
// build to build, which breaks cross-process DeepEqual of derived results.
func (l *Library) Total() float64 {
	var sum float64
	for _, t := range l.Tags() {
		sum += l.Counts[t]
	}
	return sum
}

// Unique returns the number of distinct tags (the "unique number of tags").
func (l *Library) Unique() int { return len(l.Counts) }

// Tags returns the library's tags in ascending TagID order.
func (l *Library) Tags() []TagID {
	tags := make([]TagID, 0, len(l.Counts))
	for t := range l.Counts {
		tags = append(tags, t)
	}
	slices.Sort(tags)
	return tags
}

// RefreshMeta recomputes the TotalTags / UniqueTags metadata from the counts.
func (l *Library) RefreshMeta() {
	l.Meta.TotalTags = l.Total()
	l.Meta.UniqueTags = l.Unique()
}

// Clone returns a deep copy of the library.
func (l *Library) Clone() *Library {
	cp := NewLibrary(l.Meta)
	for t, c := range l.Counts {
		cp.Counts[t] = c
	}
	return cp
}

// Scale multiplies every count by factor. Scaling to a common total is the
// normalization step of Section 4.2 ("all libraries are scaled up to
// 300,000 mRNAs per cell").
func (l *Library) Scale(factor float64) {
	for t := range l.Counts {
		l.Counts[t] *= factor
	}
}

// Corpus is an ordered collection of libraries — the raw form of the SAGE
// data set before it is assembled into a dense Dataset.
type Corpus struct {
	Libraries []*Library
}

// TissueTypes returns the distinct tissue types in the corpus, sorted.
func (c *Corpus) TissueTypes() []string {
	seen := map[string]bool{}
	for _, l := range c.Libraries {
		seen[l.Meta.Tissue] = true
	}
	types := make([]string, 0, len(seen))
	for t := range seen {
		types = append(types, t)
	}
	sort.Strings(types)
	return types
}

// ByTissue returns the libraries of the given tissue type, in corpus order.
func (c *Corpus) ByTissue(tissue string) []*Library {
	var out []*Library
	for _, l := range c.Libraries {
		if l.Meta.Tissue == tissue {
			out = append(out, l)
		}
	}
	return out
}

// ByName returns the library with the given name, or nil.
func (c *Corpus) ByName(name string) *Library {
	for _, l := range c.Libraries {
		if l.Meta.Name == name {
			return l
		}
	}
	return nil
}

// ByID returns the library with the given ID, or nil.
func (c *Corpus) ByID(id int) *Library {
	for _, l := range c.Libraries {
		if l.Meta.ID == id {
			return l
		}
	}
	return nil
}

// UnionTags returns every tag that appears in at least one library, sorted.
// This is the first step of the data-cleaning pipeline of Section 4.2.
func (c *Corpus) UnionTags() []TagID {
	seen := map[TagID]bool{}
	for _, l := range c.Libraries {
		for t := range l.Counts {
			seen[t] = true
		}
	}
	tags := make([]TagID, 0, len(seen))
	for t := range seen {
		tags = append(tags, t)
	}
	slices.Sort(tags)
	return tags
}

// TotalUniqueTags returns the size of the corpus-wide tag union.
func (c *Corpus) TotalUniqueTags() int { return len(c.UnionTags()) }
