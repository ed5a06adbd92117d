// Package workload generates the synthetic eDonkey world the capture
// observes: a file catalog and a client population whose *mechanisms* —
// not painted-on curves — produce the distributions of the paper's §3:
//
//   - heavy-tailed file popularity (Pareto weights) drives both the
//     number of providers per file (Fig 4) and of askers per file (Fig 5);
//   - heterogeneous client profiles with client-software limits produce
//     the provided-files distribution with its bump at a few thousand
//     (Fig 6) and the asked-files distribution with its singular peak at
//     exactly 52 queries (Fig 7), both explicitly hypothesised by §3.2;
//   - a file-size mixture whose mass sits on small (audio) files plus
//     narrow peaks at CD-related sizes — 175/233/350/700 MB, 1 GB,
//     1.4 GB — reproduces Fig 8;
//   - polluter clients forge fileIDs concentrated on a few prefixes
//     (Lee et al., cited as [12] in the paper), the cause of the
//     pathological anonymisation buckets of Fig 3.
//
// Everything is driven by an explicit Config and a seed; identical seeds
// give byte-identical worlds.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"

	"edtrace/internal/ed2k"
	"edtrace/internal/md4"
	"edtrace/internal/randx"
)

// File is one catalog entry.
type File struct {
	// ID is the (possibly forged) eDonkey fileID.
	ID ed2k.FileID
	// Name is the synthetic filename; keywords in it are searchable.
	Name string
	// Size in bytes.
	Size uint32
	// Type is the eDonkey filetype tag value.
	Type string
	// Weight is the popularity weight driving provider/asker sampling.
	Weight float64
	// Forged marks pollution: a fake variant of a popular file.
	Forged bool
}

// FileKind classifies the size mixture component a file was drawn from.
type FileKind uint8

// Size mixture components.
const (
	KindAudio FileKind = iota
	KindVideoBroad
	KindCD700
	KindHalfCD
	KindThirdCD
	KindQuarterCD
	KindDoubleCD
	KindGB
	KindDoc
)

// Config parameterises the synthetic world: the sizes and mixes some
// caller changes. The calibrated mechanisms no caller changes are the
// constants next to the code they drive (popularity in Generate, the
// free riders, the share caps, the regular sharers and the 52-query cap
// in GeneratePopulation). The zero value is unusable; start from
// DefaultConfig or SmallConfig.
type Config struct {
	Seed uint64

	// NumFiles is the genuine catalog size (forged files come on top).
	NumFiles int
	// NumClients is the population size.
	NumClients int

	// Forgery (Fig 3): PolluterFraction of clients are polluters, each
	// sharing ForgedPerPolluter forged variants of popular files. Forged
	// fileIDs have first two bytes 0x0000 or 0x0100.
	PolluterFraction  float64
	ForgedPerPolluter int

	// Profile mix: with PolluterFraction these sum to <= 1; of the
	// remainder, regularFraction of the population (or what is left of
	// it) is Regular and the rest Casual.
	HeavyFraction   float64
	ScannerFraction float64

	// Vocabulary size for filenames and searches.
	VocabWords int
}

// DefaultConfig returns the calibrated configuration used by the
// experiments; scale up NumFiles/NumClients for bigger runs.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		NumFiles:          300_000,
		NumClients:        60_000,
		PolluterFraction:  0.01,
		ForgedPerPolluter: 120,
		HeavyFraction:     0.03,
		ScannerFraction:   0.04,
		VocabWords:        4000,
	}
}

// SmallConfig is the load-test world: the calibrated mechanisms over
// 2000 files and 400 words, small enough to generate instantly and rich
// enough to exercise every profile. It is what edload's flag mode and a
// workload spec without world overrides start from.
func SmallConfig(seed uint64, nClients int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumClients = nClients
	cfg.NumFiles = 2000
	cfg.VocabWords = 400
	return cfg
}

// Validate reports configuration errors early.
func (c *Config) Validate() error {
	switch {
	case c.NumFiles <= 0:
		return fmt.Errorf("workload: NumFiles = %d", c.NumFiles)
	case c.NumClients <= 0:
		return fmt.Errorf("workload: NumClients = %d", c.NumClients)
	case c.PolluterFraction < 0 || c.PolluterFraction > 0.5:
		return fmt.Errorf("workload: PolluterFraction = %v", c.PolluterFraction)
	case c.VocabWords < 100:
		return fmt.Errorf("workload: VocabWords = %d", c.VocabWords)
	case c.HeavyFraction+c.ScannerFraction+c.PolluterFraction > 1:
		return fmt.Errorf("workload: profile fractions exceed 1")
	}
	return nil
}

// Catalog is the generated file universe with its sampling tables.
type Catalog struct {
	Files []File
	// GenuineCount is the number of non-forged files (a prefix of Files).
	GenuineCount int

	vocab      []string
	provideTab *randx.AliasTable
	askTab     *randx.AliasTable
}

// syllables for deterministic pseudo-word generation.
var syllables = []string{
	"ba", "be", "bo", "da", "de", "di", "do", "fa", "go", "ka", "ko", "la",
	"le", "li", "lo", "ma", "me", "mi", "mo", "na", "ne", "no", "pa", "ra",
	"re", "ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "va",
	"vi", "za", "zo", "lu", "ru", "tu", "nu", "ster", "tron", "plex", "gram",
}

func makeVocab(r *randx.Rand, n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		k := 2 + r.IntN(3)
		w := ""
		for i := 0; i < k; i++ {
			w += syllables[r.IntN(len(syllables))]
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// kinds holds each kind's file type tag and name extension.
var kinds = [...]struct{ typ, ext string }{
	KindAudio: {"Audio", ".mp3"}, KindVideoBroad: {"Video", ".avi"},
	KindCD700: {"Video", ".avi"}, KindHalfCD: {"Video", ".avi"},
	KindThirdCD: {"Video", ".avi"}, KindQuarterCD: {"Video", ".avi"},
	KindDoubleCD: {"Video", ".avi"}, KindGB: {"Video", ".iso"},
	KindDoc: {"Doc", ".pdf"},
}

const mb = 1 << 20

// sizeMixture returns (kind, size in bytes). Mixture weights and the
// narrow CD-fraction peaks implement Fig 8's annotated structure.
func sizeMixture(r *randx.Rand) (FileKind, uint32) {
	u := r.Float64()
	peak := func(centerMB float64) uint32 {
		// Narrow log-normal around the canonical size; 30% of the mass
		// sits exactly on the canonical value (rips of the same medium).
		if r.Bool(0.30) {
			return uint32(centerMB * mb)
		}
		v := centerMB * mb * r.LogNormal(0, 0.015)
		return uint32(v)
	}
	switch {
	case u < 0.52: // small audio files: the dominant mass
		v := r.LogNormal(1.5, 0.55) // median ~4.5 MB
		if v < 0.05 {
			v = 0.05
		}
		return KindAudio, uint32(v * mb)
	case u < 0.60: // documents and images, even smaller
		v := r.LogNormal(-0.7, 1.0) // median ~0.5 MB
		if v < 0.001 {
			v = 0.001
		}
		return KindDoc, uint32(v * mb)
	case u < 0.72: // broad video mass between the peaks
		v := r.LogNormal(5.3, 0.8) // median ~200 MB
		if v > 3500 {
			v = 3500
		}
		return KindVideoBroad, uint32(v * mb)
	case u < 0.82:
		return KindCD700, peak(700)
	case u < 0.87:
		return KindHalfCD, peak(350)
	case u < 0.90:
		return KindThirdCD, peak(233)
	case u < 0.925:
		return KindQuarterCD, peak(175)
	case u < 0.95:
		return KindDoubleCD, peak(1400)
	default:
		return KindGB, peak(1024)
	}
}

// Popularity is a two-component model. Every file has a light-tailed
// "niche" weight Pareto(1, bodyAlpha): the long tail of collections. A
// hitFraction of files additionally draw a heavy-tailed "hit" weight
// Pareto(1, hitAlpha) capped at hitWeightCap: the releases everyone
// shares and asks for. The body produces Fig 4's mass of files with one
// or two providers; the capped hit tail produces its 4-decade spread up
// to ~10^4 providers.
const (
	bodyAlpha    = 1.6
	hitFraction  = 0.02
	hitAlpha     = 0.65
	hitWeightCap = 20_000
)

// askWeightExponent skews asking popularity relative to providing
// popularity: ask weight = weight^askWeightExponent. >1 concentrates
// asks on hits.
const askWeightExponent = 1.25

// hotAskBoost multiplies the ask weight of the hottest releases (the
// forgery-target set): demand for a fresh hit far outruns its supply,
// which is how the paper's Fig 5 reaches ~150 k askers while Fig 4 tops
// out near 10 k providers.
const hotAskBoost = 40

// Generate builds the catalog: genuine files first, then forged variants
// of popular files contributed by polluters.
func Generate(cfg Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed, 0x9E3779B97F4A7C15)
	rVocab := root.Split(1)
	rFiles := root.Split(2)
	rForge := root.Split(3)

	cat := &Catalog{vocab: makeVocab(rVocab, cfg.VocabWords)}
	zipf := randx.NewZipf(rFiles, 1.4, 2, uint64(cfg.VocabWords-1))

	nPolluters := int(float64(cfg.NumClients) * cfg.PolluterFraction)
	nForged := nPolluters * cfg.ForgedPerPolluter
	cat.Files = make([]File, 0, cfg.NumFiles+nForged)
	cat.GenuineCount = cfg.NumFiles

	var seed [32]byte
	for i := 0; i < cfg.NumFiles; i++ {
		kind, size := sizeMixture(rFiles)
		// Genuine fileID: MD4 over a unique seed — uniformly distributed
		// like a real content hash.
		binary.LittleEndian.PutUint64(seed[0:], cfg.Seed)
		binary.LittleEndian.PutUint64(seed[8:], uint64(i))
		id := md4.Sum(seed[:])
		name := cat.wordAt(zipf.Uint64())
		for k, kmax := 0, 1+rFiles.IntN(4); k < kmax; k++ {
			name += " " + cat.wordAt(zipf.Uint64())
		}
		name += kinds[kind].ext
		w := rFiles.Pareto(1, bodyAlpha)
		if rFiles.Bool(hitFraction) {
			h := rFiles.Pareto(1, hitAlpha)
			if h > hitWeightCap {
				h = hitWeightCap
			}
			w += h
		}
		cat.Files = append(cat.Files, File{
			ID:     ed2k.FileID(id),
			Name:   name,
			Size:   size,
			Type:   kinds[kind].typ,
			Weight: w,
		})
	}

	// Forged variants target the most popular genuine files.
	top := topIndices(cat.Files[:cfg.NumFiles], 200)
	for i := 0; i < nForged; i++ {
		target := &cat.Files[top[rForge.IntN(len(top))]]
		cat.Files = append(cat.Files, File{
			ID:     forgeFileID(rForge),
			Name:   target.Name,
			Size:   target.Size,
			Type:   target.Type,
			Weight: target.Weight * 0.5, // forged copies ride the hit's popularity
			Forged: true,
		})
	}

	// Sampling tables. Providing draws cover genuine files only (forged
	// files are announced exclusively by polluters); asking covers the
	// whole catalog — pollution works precisely because victims request
	// forged fileIDs they found in search answers.
	pw := make([]float64, len(cat.Files))
	aw := make([]float64, len(cat.Files))
	for i := range cat.Files {
		if !cat.Files[i].Forged {
			pw[i] = cat.Files[i].Weight
		}
		aw[i] = math.Pow(cat.Files[i].Weight, askWeightExponent)
	}
	// Hot releases: demand outruns supply on the hit set (the same set
	// pollution targets).
	for _, i := range top {
		aw[i] *= hotAskBoost
	}
	cat.provideTab = randx.NewAliasTable(pw)
	cat.askTab = randx.NewAliasTable(aw)
	return cat, nil
}

// forgeFileID builds one polluted fileID: first two bytes 0x0000 (half)
// or 0x0100, the fixed prefixes of pollution tools. Residual structure
// beyond the prefix — small pools for the next bytes — keeps some skew
// even in "good" byte pairs (Fig 3, right panel).
func forgeFileID(r *randx.Rand) ed2k.FileID {
	var id ed2k.FileID
	binary.LittleEndian.PutUint64(id[8:], r.Uint64())
	if r.Bool(0.5) {
		id[0], id[1] = 0x00, 0x00
	} else {
		id[0], id[1] = 0x01, 0x00
	}
	id[2] = byte(r.IntN(4))
	id[3] = byte(r.IntN(256))
	id[4] = byte(r.IntN(256))
	id[5] = byte(16 + r.IntN(16))
	id[6] = byte(r.IntN(256))
	id[7] = byte(r.IntN(256))
	return id
}

func (c *Catalog) wordAt(i uint64) string { return c.vocab[i%uint64(len(c.vocab))] }

// topIndices returns the indices of the k largest-weight files.
func topIndices(files []File, k int) []int {
	if k > len(files) {
		k = len(files)
	}
	idx := make([]int, len(files))
	for i := range idx {
		idx[i] = i
	}
	// partial selection sort is fine for small k
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			if files[idx[j]].Weight > files[idx[best]].Weight {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}

// SampleShare draws one file for a client's shared folder using the full
// two-component popularity (body + hits).
func (c *Catalog) SampleShare(r *randx.Rand) int { return c.provideTab.Sample(r) }

// SampleAsk draws a file index with the ask-skewed popularity.
func (c *Catalog) SampleAsk(r *randx.Rand) int { return c.askTab.Sample(r) }

// Vocab exposes the keyword vocabulary (for search generation).
func (c *Catalog) Vocab() []string { return c.vocab }
