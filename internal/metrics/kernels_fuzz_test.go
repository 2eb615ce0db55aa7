package metrics

import (
	"math"
	"sort"
	"testing"
)

// Native fuzz targets for the bit-parallel and merge-based metric kernels.
// `go test` replays the committed seeds under testdata/fuzz/<target>/ (empty
// input, one rune, 64- and 65-rune values on both sides of the single-word
// cutoff, non-ASCII runes, repeated tokens); `make fuzz` explores further.
// Every target compares against the loop or map form the kernel replaced,
// down to the float64 bits.

// oracleJaro is the original Jaro loop with match flags, kept as the oracle
// for the rune-mask matching.
func oracleJaro(ra, rb []rune) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchedA, matchedB := make([]bool, la), make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchedA[i] {
			continue
		}
		for !matchedB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// The map forms the token metrics used before the sorted distinct-token
// merges, kept as oracles.

func oracleTokenSet(p *Prepared) map[string]struct{} {
	set := make(map[string]struct{})
	for _, t := range p.Tokens() {
		set[t] = struct{}{}
	}
	return set
}

func oracleTokenCounts(p *Prepared) (map[string]int, []string) {
	counts := make(map[string]int)
	for _, t := range p.Tokens() {
		counts[t]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return counts, keys
}

func oracleJaccard(pa, pb *Prepared) float64 {
	return jaccardSets(oracleTokenSet(pa), oracleTokenSet(pb))
}

func oracleOverlap(pa, pb *Prepared) float64 {
	sa, sb := oracleTokenSet(pa), oracleTokenSet(pb)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	return float64(inter) / float64(min(len(sa), len(sb)))
}

func oracleDiffKeyToken(pa, pb *Prepared, c *Corpus) float64 {
	sa, sb := oracleTokenSet(pa), oracleTokenSet(pb)
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	count := 0
	for t := range sa {
		if _, shared := sb[t]; !shared && isKeyToken(t, c) {
			count++
		}
	}
	for t := range sb {
		if _, shared := sa[t]; !shared && isKeyToken(t, c) {
			count++
		}
	}
	return float64(count)
}

func oracleCosineTFIDF(pa, pb *Prepared, c *Corpus) float64 {
	ca, ka := oracleTokenCounts(pa)
	cb, kb := oracleTokenCounts(pb)
	if len(ca) == 0 && len(cb) == 0 {
		return 1
	}
	if len(ca) == 0 || len(cb) == 0 {
		return 0
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for _, t := range ka {
		w := idfWeight(c, t)
		va := float64(ca[t]) * w
		na += va * va
		if fb, ok := cb[t]; ok {
			dot += va * float64(fb) * w
		}
	}
	for _, t := range kb {
		w := idfWeight(c, t)
		vb := float64(cb[t]) * w
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// FuzzEditDistance checks the length-dispatched edit distance (bit-parallel
// up to 64 runes on the shorter side, DP beyond) against the original DP,
// in both argument orders on one Scratch so stale masks would show.
func FuzzEditDistance(f *testing.F) {
	f.Add("kitten", "sitting")
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := []rune(a), []rune(b)
		want := oracleLevenshtein(ra, rb)
		var s Scratch
		if got := levenshteinRunes(ra, rb, &s); got != want {
			t.Fatalf("levenshtein(%q, %q) = %d, oracle %d", a, b, got, want)
		}
		if got := levenshteinRunes(rb, ra, &s); got != want {
			t.Fatalf("levenshtein(%q, %q) = %d, oracle %d", b, a, got, want)
		}
	})
}

// FuzzJaro checks the rune-mask Jaro (and the DP it falls back to past 64
// runes) against the original loop, bit for bit, in both orders.
func FuzzJaro(f *testing.F) {
	f.Add("martha", "marhta")
	f.Fuzz(func(t *testing.T, a, b string) {
		ra, rb := []rune(a), []rune(b)
		var s Scratch
		for _, p := range [][2][]rune{{ra, rb}, {rb, ra}} {
			got, want := jaroRunes(p[0], p[1], &s), oracleJaro(p[0], p[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("jaro(%q, %q) = %v, oracle %v", string(p[0]), string(p[1]), got, want)
			}
		}
	})
}

// FuzzTokenMetrics checks the distinct-token merges of jaccard, overlap,
// diff_key_token and cosine_tfidf against their map forms, bit for bit,
// with and without a corpus, on fresh and on reused Prepared values.
func FuzzTokenMetrics(f *testing.F) {
	f.Add("data data base", "base of data")
	ra, rb := NewReusable(), NewReusable()
	f.Fuzz(func(t *testing.T, a, b string) {
		corpus := NewCorpus([]string{a, b, "the data base", "of the"}, 0.5)
		ra.Reset(b, NeedAll) // pollute the reused buffers first
		rb.Reset(a, NeedAll)
		ra.Reset(a, NeedAll)
		rb.Reset(b, NeedAll)
		pa, pb := Prepare(a), Prepare(b)
		for _, c := range []*Corpus{nil, corpus} {
			for _, k := range []struct {
				name string
				got  func(pa, pb *Prepared) float64
				want float64
			}{
				{"jaccard", func(pa, pb *Prepared) float64 { return jaccardTokensP(pa, pb, nil) }, oracleJaccard(pa, pb)},
				{"overlap", func(pa, pb *Prepared) float64 { return overlapTokensP(pa, pb, nil) }, oracleOverlap(pa, pb)},
				{"diff_key_token", func(pa, pb *Prepared) float64 { return diffKeyTokenP(pa, pb, c, nil) }, oracleDiffKeyToken(pa, pb, c)},
				{"cosine_tfidf", func(pa, pb *Prepared) float64 { return cosineTFIDFP(pa, pb, c, nil) }, oracleCosineTFIDF(pa, pb, c)},
			} {
				for _, got := range []float64{k.got(Prepare(a), Prepare(b)), k.got(ra, rb)} {
					if math.Float64bits(got) != math.Float64bits(k.want) {
						t.Fatalf("%s(%q, %q) corpus=%v: merge %v, map form %v", k.name, a, b, c != nil, got, k.want)
					}
				}
			}
		}
	})
}
