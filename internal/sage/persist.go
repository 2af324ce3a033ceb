package sage

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"gea/internal/atomicio"
)

// Corpus persistence, durability-hardened. A corpus directory is a
// generation store (see atomicio):
//
//	dir/CURRENT              commit pointer naming the live generation
//	dir/gen-NNNNNN/sageName.txt
//	dir/gen-NNNNNN/<name>.sage
//
// Every file carries the atomicio checksum footer. SaveCorpus writes a
// complete new generation and flips CURRENT as its single commit point, so
// a crash at any step leaves the previous corpus fully intact; stale
// generations are garbage-collected after the commit. This replaces the
// original flat layout, whose in-place os.Create rewrites could destroy a
// good corpus on a crash mid-save.

// indexFile is the corpus index name inside a generation ("sageName.txt"
// in the thesis's layout).
const indexFile = "sageName.txt"

// Load phases a Problem can surface in, named after the commit
// protocol's boundary: everything inside a generation directory was
// written before the CURRENT flip (the crash walks pin that ordering),
// so the phase tells an operator whether the artifact never
// verified off disk or verified and then failed to decode.
const (
	// PhaseRead: the framed file failed atomicio verification — missing,
	// truncated, or checksum mismatch.
	PhaseRead = "read"
	// PhaseDecode: the bytes verified but the library payload did not
	// parse — damage predates the commit, i.e. the writer produced it.
	PhaseDecode = "decode"
)

// Problem records one damaged or unreadable artifact a salvaging load
// skipped.
type Problem struct {
	// Path is the offending file.
	Path string
	// Gen is the generation directory the artifact was committed under, so
	// quarantine diagnostics can point at the exact failed commit in a
	// multi-generation append store.
	Gen string
	// Phase is the load phase that rejected the artifact: PhaseRead or
	// PhaseDecode.
	Phase string
	// Err classifies the damage (atomicio.ErrChecksum, atomicio.ErrTruncated,
	// a parse error, or a missing-file error).
	Err error
}

func (p Problem) String() string {
	ctx := ""
	switch {
	case p.Gen != "" && p.Phase != "":
		ctx = fmt.Sprintf(" (committed in %s, failed in the %s phase)", p.Gen, p.Phase)
	case p.Gen != "":
		ctx = fmt.Sprintf(" (committed in %s)", p.Gen)
	case p.Phase != "":
		ctx = fmt.Sprintf(" (failed in the %s phase)", p.Phase)
	}
	return fmt.Sprintf("%s%s: %v", p.Path, ctx, p.Err)
}

// SaveCorpus writes the corpus to dir with the crash-safe generation
// protocol. The directory is created if needed.
func SaveCorpus(dir string, c *Corpus) error {
	return SaveCorpusFS(atomicio.OS{}, dir, c)
}

// SaveCorpusFS is SaveCorpus over an injectable filesystem.
func SaveCorpusFS(fsys atomicio.FS, dir string, c *Corpus) error {
	for i, l := range c.Libraries {
		name := l.Meta.Name
		if name == "" || strings.ContainsAny(name, "/\\") {
			return fmt.Errorf("sage: library %d has unusable name %q", i+1, name)
		}
	}
	seen := make(map[string]bool, len(c.Libraries))
	for _, l := range c.Libraries {
		if seen[l.Meta.Name] {
			return fmt.Errorf("sage: duplicate library name %q", l.Meta.Name)
		}
		seen[l.Meta.Name] = true
	}
	gen, err := atomicio.NextGen(fsys, dir)
	if err != nil {
		return err
	}
	gd := filepath.Join(dir, gen)
	if err := fsys.MkdirAll(gd, 0o755); err != nil {
		return err
	}
	for _, l := range c.Libraries {
		l := l
		err := atomicio.WriteFileFunc(fsys, filepath.Join(gd, l.Meta.Name+".sage"),
			func(w io.Writer) error { return WriteLibrary(w, l) })
		if err != nil {
			return err
		}
	}
	err = atomicio.WriteFileFunc(fsys, filepath.Join(gd, indexFile),
		func(w io.Writer) error { return WriteIndex(w, c) })
	if err != nil {
		return err
	}
	if err := atomicio.Commit(fsys, dir, gen); err != nil {
		return err
	}
	atomicio.CleanupGens(fsys, dir, gen)
	return nil
}

// LoadCorpus reads a corpus previously written by SaveCorpus. It is
// strict: any damaged file fails the load. Use LoadCorpusSalvage to skip
// damaged libraries instead.
func LoadCorpus(dir string) (*Corpus, error) {
	return LoadCorpusFS(atomicio.OS{}, dir)
}

// LoadCorpusFS is LoadCorpus over an injectable filesystem.
func LoadCorpusFS(fsys atomicio.FS, dir string) (*Corpus, error) {
	c, problems, err := LoadCorpusSalvage(fsys, dir)
	if err != nil {
		return nil, err
	}
	if len(problems) > 0 {
		return nil, fmt.Errorf("sage: corpus damaged: %v", problems[0])
	}
	return c, nil
}

// LoadCorpusSalvage loads as much of a corpus as verifies. The commit
// pointer and the index are load-bearing — damage there is a hard error —
// but a damaged or missing library file only lands in the returned problem
// list, and that library is skipped. Each Problem carries the generation
// directory the broken artifact was committed under: in a multi-generation
// append store (see internal/ingest) that names the exact append whose
// files went bad, which is what the quarantine report points operators at.
func LoadCorpusSalvage(fsys atomicio.FS, dir string) (*Corpus, []Problem, error) {
	gen, err := atomicio.CurrentGen(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	gd := filepath.Join(dir, gen)
	idxPath := filepath.Join(gd, indexFile)
	idxData, err := atomicio.ReadFile(fsys, idxPath)
	if err != nil {
		return nil, nil, err
	}
	metas, gens, err := ReadIndexWithGens(bytes.NewReader(idxData))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", idxPath, err)
	}
	c := &Corpus{}
	var problems []Problem
	for i, m := range metas {
		libGen := gen
		if gens[i] != "" {
			libGen = gens[i]
		}
		path := filepath.Join(dir, libGen, m.Name+".sage")
		data, err := atomicio.ReadFile(fsys, path)
		if err != nil {
			problems = append(problems, Problem{Path: path, Gen: libGen, Phase: PhaseRead, Err: err})
			continue
		}
		l, err := ReadLibrary(bytes.NewReader(data), m)
		if err != nil {
			problems = append(problems, Problem{Path: path, Gen: libGen, Phase: PhaseDecode, Err: err})
			continue
		}
		c.Libraries = append(c.Libraries, l)
	}
	return c, problems, nil
}

// SaveBinaryFile atomically writes a checksummed ".b" tissue file.
func SaveBinaryFile(fsys atomicio.FS, path string, d *Dataset) error {
	return atomicio.WriteFileFunc(fsys, path,
		func(w io.Writer) error { return WriteBinary(w, d) })
}

// LoadBinaryFile verifies and reads a ".b" file written by SaveBinaryFile.
func LoadBinaryFile(fsys atomicio.FS, path string, metaByName map[string]LibraryMeta) (*Dataset, error) {
	data, err := atomicio.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	d, err := ReadBinary(bytes.NewReader(data), metaByName)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// SaveMetaFile atomically writes a checksummed ".meta" tolerance file.
func SaveMetaFile(fsys atomicio.FS, path string, tol map[TagID]float64) error {
	return atomicio.WriteFileFunc(fsys, path,
		func(w io.Writer) error { return WriteMeta(w, tol) })
}

// LoadMetaFile verifies and reads a ".meta" file written by SaveMetaFile.
func LoadMetaFile(fsys atomicio.FS, path string) (map[TagID]float64, error) {
	data, err := atomicio.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	tol, err := ReadMeta(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tol, nil
}
