package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The corpus for a seed is generated once with "gea gen -full" and kept
// under the build directory together with a manifest: the SHA-256 of the
// gea binary that wrote it and of every file. A run reuses the cached
// corpus only when the manifest still matches, so generation stays out of
// every timed phase and out of setup_s.

// ensureCorpus returns the store directory holding the full-scale corpus
// for seed, generating it when the cache is missing or stale.
func ensureCorpus(geaBin, cacheDir string, seed int64) (string, error) {
	dir := filepath.Join(cacheDir, fmt.Sprintf("seed-%d", seed))
	store := filepath.Join(dir, "store")
	if want, err := os.ReadFile(filepath.Join(dir, "MANIFEST")); err == nil {
		got, err := manifestOf(geaBin, store)
		if err == nil && got == string(want) {
			return store, nil
		}
		logf("corpus cache for seed %d does not match its manifest; regenerating", seed)
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	out, err := exec.Command(geaBin, "gen", "-full", "-seed", strconv.FormatInt(seed, 10),
		"-out", filepath.Join(tmp, "store")).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("gea gen -full -seed %d: %v: %s", seed, err, out)
	}
	m, err := manifestOf(geaBin, filepath.Join(tmp, "store"))
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tmp, "MANIFEST"), []byte(m), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return store, nil
}

// manifestOf lists the SHA-256 of the gea binary and of every file under
// store, one "digest  path" line each, sorted by path.
func manifestOf(geaBin, store string) (string, error) {
	var lines []string
	bin, err := fileSHA(geaBin)
	if err != nil {
		return "", err
	}
	lines = append(lines, bin+"  <gea>")
	err = filepath.WalkDir(store, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		sum, err := fileSHA(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(store, p)
		if err != nil {
			return err
		}
		lines = append(lines, sum+"  "+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(lines[1:])
	return strings.Join(lines, "\n") + "\n", nil
}

func fileSHA(p string) (string, error) {
	f, err := os.Open(p)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyTree copies the regular files and directories under src to dst,
// which must not exist yet: every server launch gets a fresh store.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// footerLen is the size of the checksum footer that ends every file the
// gea store writes; it starts with the magic "GEAF".
const footerLen = 20

// stripFooter removes a store file's checksum footer.
func stripFooter(b []byte) ([]byte, error) {
	if len(b) < footerLen || string(b[len(b)-footerLen:len(b)-footerLen+4]) != "GEAF" {
		return nil, fmt.Errorf("no GEAF footer")
	}
	return b[:len(b)-footerLen], nil
}

// library is one SAGE library as the corpus files describe it.
type library struct {
	Name   string
	Tissue string
	Cancer bool
	Cell   bool
	Counts map[string]float64
}

// loadLibraries reads the committed generation of a store written by
// "gea gen": the sageName.txt index and one plain-text "TAG\tCOUNT"
// file per library, in index order.
func loadLibraries(store string) ([]library, error) {
	cur, err := os.ReadFile(filepath.Join(store, "CURRENT"))
	if err != nil {
		return nil, err
	}
	gen, err := stripFooter(cur)
	if err != nil {
		return nil, fmt.Errorf("CURRENT: %w", err)
	}
	genDir := filepath.Join(store, strings.TrimSpace(string(gen)))
	idx, err := os.ReadFile(filepath.Join(genDir, "sageName.txt"))
	if err != nil {
		return nil, err
	}
	if idx, err = stripFooter(idx); err != nil {
		return nil, fmt.Errorf("sageName.txt: %w", err)
	}
	var libs []library
	for _, line := range strings.Split(strings.TrimSpace(string(idx)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 6 {
			return nil, fmt.Errorf("sageName.txt: malformed line %q", line)
		}
		l := library{Name: f[0], Tissue: f[1], Cancer: f[2] == "1", Cell: f[3] == "1", Counts: map[string]float64{}}
		b, err := os.ReadFile(filepath.Join(genDir, l.Name+".sage"))
		if err != nil {
			return nil, err
		}
		if b, err = stripFooter(b); err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			tag, cnt, ok := strings.Cut(sc.Text(), "\t")
			if !ok {
				continue
			}
			v, err := strconv.ParseFloat(cnt, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: count %q: %w", l.Name, cnt, err)
			}
			l.Counts[tag] = v
		}
		libs = append(libs, l)
	}
	if len(libs) == 0 {
		return nil, fmt.Errorf("store %s holds no libraries", store)
	}
	return libs, nil
}

// ingestLibrary is one library of a POST /ingest batch.
type ingestLibrary struct {
	Name   string             `json:"name"`
	Tissue string             `json:"tissue"`
	Cancer bool               `json:"cancer,omitempty"`
	Cell   bool               `json:"cell_line,omitempty"`
	Counts map[string]float64 `json:"counts"`
}

// makeBatches builds n seeded POST /ingest bodies of size new libraries
// each. Every new library resamples a seeded base library of the corpus:
// same tissue and state, each tag count scaled by a per-library depth
// factor and a per-tag jitter, so batches grow existing tissues with
// realistic libraries over the corpus's own tag universe.
func makeBatches(base []library, seed int64, n, size int) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	out := make([][]byte, 0, n)
	for b := 0; b < n; b++ {
		libs := make([]ingestLibrary, 0, size)
		for j := 0; j < size; j++ {
			src := base[rng.Intn(len(base))]
			depth := 0.7 + 0.6*rng.Float64()
			counts := make(map[string]float64, len(src.Counts))
			for _, tag := range sortedKeys(src.Counts) {
				c := float64(int(src.Counts[tag]*depth*(0.8+0.4*rng.Float64()) + rng.Float64()))
				if c > 0 {
					counts[tag] = c
				}
			}
			libs = append(libs, ingestLibrary{
				Name:   fmt.Sprintf("BENCH_%s_b%02d_%02d", src.Tissue, b+1, j+1),
				Tissue: src.Tissue, Cancer: src.Cancer, Cell: src.Cell, Counts: counts,
			})
		}
		body, err := json.Marshal(map[string]any{"libraries": libs})
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
