// Package metrics implements the basic similarity and difference metrics on
// attribute values that LearnRisk's rule generation consumes (paper Section
// 5.1, Figure 5).
//
// Similarity metrics capture the common part of two values and indicate
// equivalence; difference metrics directly capture what distinguishes two
// values and indicate inequivalence (non-substring, distinct-entity,
// diff-key-token, ...). All metrics return float64 so that the decision-tree
// rule generator can threshold them uniformly.
//
// Every catalog metric has two entry points: the exported string function
// (the reference form, kept for tests and external callers) and an
// unexported core over *Prepared values. The string functions are thin
// wrappers around the cores, so the two paths agree bit-for-bit; the
// feature-store pipeline uses the prepared cores to avoid re-normalizing and
// re-tokenizing the same value for every metric and every candidate pair.
package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/strutil"
)

// Levenshtein returns the edit distance between the normalized forms of a
// and b, in rune operations (insert, delete, substitute).
func Levenshtein(a, b string) int {
	var s Scratch
	return levenshteinRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

// levenshteinRunes dispatches on length, as lcsRunes does: the
// bit-parallel kernel when the shorter side fits one 64-bit word, the
// register-blocked DP otherwise (bitlcs.go). Both produce the exact
// classic-DP distance.
func levenshteinRunes(ra, rb []rune, s *Scratch) int {
	pat, text := ra, rb
	if len(pat) > len(text) {
		pat, text = text, pat
	}
	if len(pat) == 0 {
		return len(text)
	}
	if len(pat) <= 64 {
		return levenshteinBits(pat, text, s)
	}
	return levenshteinLen(ra, rb, s)
}

// EditSimilarity returns 1 - Levenshtein(a,b)/max(len(a),len(b)), a
// similarity in [0,1]. Two empty values are maximally similar.
func EditSimilarity(a, b string) float64 {
	var s Scratch
	return editSimilarityP(Prepare(a), Prepare(b), &s)
}

func editSimilarityP(pa, pb *Prepared, s *Scratch) float64 {
	ra, rb := pa.Runes(), pb.Runes()
	m := len(ra)
	if len(rb) > m {
		m = len(rb)
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(levenshteinRunes(ra, rb, s))/float64(m)
}

// Jaro returns the Jaro similarity of the normalized values, in [0,1].
func Jaro(a, b string) float64 {
	var s Scratch
	return jaroRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

func jaroRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max(max(la, lb)/2-1, 0)
	var matches, transpositions int
	if lb <= 64 {
		matches, transpositions = jaroCountsBits(ra, rb, window, s)
	} else {
		matches, transpositions = jaroCountsDP(ra, rb, window, s)
	}
	if matches == 0 {
		return 0
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroCountsDP is the classic Jaro matching scan with match flags: each
// rune of ra takes the first unmatched equal rune of rb within window
// positions, then transpositions count the matched pairs that disagree
// when both sides are read in order. jaroCountsBits computes the same
// counts when rb fits one 64-bit word.
func jaroCountsDP(ra, rb []rune, window int, s *Scratch) (matches, transpositions int) {
	la, lb := len(ra), len(rb)
	matchedA, matchedB := s.bools2(la, lb)
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window+1, lb)
		for j := lo; j < hi; j++ {
			if !matchedB[j] && ra[i] == rb[j] {
				matchedA[i] = true
				matchedB[j] = true
				matches++
				break
			}
		}
	}
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
	return matches, transpositions
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale of 0.1 and a maximum rewarded prefix of 4 runes.
func JaroWinkler(a, b string) float64 {
	var s Scratch
	return jaroWinklerRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

func jaroWinklerP(pa, pb *Prepared, s *Scratch) float64 {
	return jaroWinklerRunes(pa.Runes(), pb.Runes(), s)
}

func jaroWinklerRunes(ra, rb []rune, s *Scratch) float64 {
	j := jaroRunes(ra, rb, s)
	p := 0
	for p < len(ra) && p < len(rb) && ra[p] == rb[p] {
		p++
	}
	if p > 4 {
		p = 4
	}
	return j + float64(p)*0.1*(1-j)
}

// JaccardTokens returns the Jaccard index of the token sets of a and b.
// Two empty token sets are maximally similar.
func JaccardTokens(a, b string) float64 {
	return jaccardTokensP(Prepare(a), Prepare(b), nil)
}

func jaccardTokensP(pa, pb *Prepared, _ *Scratch) float64 {
	ta, _ := pa.DistinctTokens()
	tb, _ := pb.DistinctTokens()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	inter := sharedTokens(ta, tb)
	return float64(inter) / float64(len(ta)+len(tb)-inter)
}

// sharedTokens counts the tokens two ascending distinct-token slices have
// in common, by a linear merge.
//
//vetkit:hotpath
func sharedTokens(a, b []string) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// JaccardEntities returns the Jaccard index of the entity-name sets of two
// entity-set values such as author lists (the paper's entity-based
// JaccardIndex in Example 1).
func JaccardEntities(a, b string) float64 {
	return jaccardEntitiesP(Prepare(a), Prepare(b), nil)
}

func jaccardEntitiesP(pa, pb *Prepared, _ *Scratch) float64 {
	return jaccardSets(pa.EntitySet(), pb.EntitySet())
}

func jaccardSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for t := range sa {
		if _, ok := sb[t]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// OverlapTokens returns |A∩B| / min(|A|,|B|) over token sets (the overlap
// coefficient). Empty-vs-empty is 1; empty-vs-nonempty is 0.
func OverlapTokens(a, b string) float64 {
	return overlapTokensP(Prepare(a), Prepare(b), nil)
}

func overlapTokensP(pa, pb *Prepared, _ *Scratch) float64 {
	ta, _ := pa.DistinctTokens()
	tb, _ := pb.DistinctTokens()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return float64(sharedTokens(ta, tb)) / float64(min(len(ta), len(tb)))
}

// QGramJaccard returns the Jaccard index of the q-gram (q=2) sets of a and b.
func QGramJaccard(a, b string) float64 {
	sa := make(map[string]struct{})
	for _, g := range strutil.QGrams(a, 2) {
		sa[g] = struct{}{}
	}
	sb := make(map[string]struct{})
	for _, g := range strutil.QGrams(b, 2) {
		sb[g] = struct{}{}
	}
	return jaccardSets(sa, sb)
}

// LCS returns the length of the longest common subsequence of the normalized
// values, normalized by the length of the longer value, yielding [0,1].
func LCS(a, b string) float64 {
	var s Scratch
	return lcsRunes([]rune(strutil.Normalize(a)), []rune(strutil.Normalize(b)), &s)
}

func lcsP(pa, pb *Prepared, s *Scratch) float64 {
	return lcsRunes(pa.Runes(), pb.Runes(), s)
}

func lcsRunes(ra, rb []rune, s *Scratch) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	// The shorter side becomes the bit dimension; below the cutoff the
	// register DP wins. Both compute the exact DP cell values.
	var l int
	pat, text := ra, rb
	if len(pat) > len(text) {
		pat, text = text, pat
	}
	if len(pat) >= bitLCSMin {
		l = lcsLenBits(pat, text, s)
	} else {
		l = lcsLenDP(ra, rb, s)
	}
	m := la
	if lb > m {
		m = lb
	}
	return float64(l) / float64(m)
}

// MongeElkan returns the Monge-Elkan similarity: the average over tokens of a
// of the best Jaro-Winkler match against tokens of b. Asymmetric by
// definition; SymMongeElkan averages both directions.
func MongeElkan(a, b string) float64 {
	var s Scratch
	return mongeElkanP(Prepare(a), Prepare(b), &s)
}

// mongeElkanP relies on tokens being normalization fixed points (a token is
// a run of lowercase letters/digits, so Normalize(token) == token), which
// lets the inner Jaro-Winkler run on the cached token runes directly.
func mongeElkanP(pa, pb *Prepared, s *Scratch) float64 {
	ta, tb := pa.TokenRunes(), pb.TokenRunes()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if jw := jaroWinklerRunes(x, y, s); jw > best {
				best = jw
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// SymMongeElkan is the symmetric mean of MongeElkan in both directions.
func SymMongeElkan(a, b string) float64 {
	var s Scratch
	return symMongeElkanP(Prepare(a), Prepare(b), &s)
}

func symMongeElkanP(pa, pb *Prepared, s *Scratch) float64 {
	return (mongeElkanP(pa, pb, s) + mongeElkanP(pb, pa, s)) / 2
}

// NumericSimilarity parses a and b as numbers and returns
// 1 - |x-y|/max(|x|,|y|), clamped to [0,1]. Unparseable or absent values
// yield 0 unless both are absent (1: vacuously equal).
func NumericSimilarity(a, b string) float64 {
	return numericSimilarityP(Prepare(a), Prepare(b), nil)
}

func numericSimilarityP(pa, pb *Prepared, _ *Scratch) float64 {
	x, okA := pa.Num()
	y, okB := pb.Num()
	if !okA && !okB {
		return 1
	}
	if !okA || !okB {
		return 0
	}
	if x == y {
		return 1
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	if m == 0 {
		return 1
	}
	s := 1 - math.Abs(x-y)/m
	if s < 0 {
		return 0
	}
	return s
}

// numberCleaner strips currency symbols and thousands separators; hoisted to
// package level because strings.NewReplacer builds its matching machinery on
// first use and is safe for concurrent use.
var numberCleaner = strings.NewReplacer("$", "", ",", "", "£", "", "€", "")

func parseNumber(s string) (float64, error) {
	cleaned := strings.TrimSpace(numberCleaner.Replace(s))
	return strconv.ParseFloat(cleaned, 64)
}

// CosineTFIDF returns the TF-IDF-weighted cosine similarity of the token
// vectors of a and b under the supplied corpus statistics. A nil corpus
// degrades to uniform IDF (plain cosine).
func CosineTFIDF(a, b string, c *Corpus) float64 {
	return cosineTFIDFP(Prepare(a), Prepare(b), c, nil)
}

func cosineTFIDFP(pa, pb *Prepared, c *Corpus, _ *Scratch) float64 {
	ta, ca := pa.DistinctTokens()
	tb, cb := pb.DistinctTokens()
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return cosineMerge(ta, ca, tb, cb, c)
}

// cosineMerge is the TF-IDF cosine of two ascending distinct-token slices
// with their counts, walked as one merge. Each of the three sums
// accumulates in ascending token order: float addition is not
// associative, so a fixed order is what keeps the result bit-reproducible.
// A shared token's IDF is looked up once.
//
//vetkit:hotpath
func cosineMerge(ta []string, ca []int, tb []string, cb []int, c *Corpus) float64 {
	dot, na, nb := 0.0, 0.0, 0.0
	i, j := 0, 0
	for i < len(ta) || j < len(tb) {
		switch {
		case j == len(tb) || (i < len(ta) && ta[i] < tb[j]):
			va := float64(ca[i]) * idfWeight(c, ta[i])
			na += va * va
			i++
		case i == len(ta) || tb[j] < ta[i]:
			vb := float64(cb[j]) * idfWeight(c, tb[j])
			nb += vb * vb
			j++
		default:
			w := idfWeight(c, ta[i])
			va := float64(ca[i]) * w
			na += va * va
			dot += va * float64(cb[j]) * w
			vb := float64(cb[j]) * w
			nb += vb * vb
			i++
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

//vetkit:hotpath
func idfWeight(c *Corpus, token string) float64 {
	if c == nil {
		return 1
	}
	return c.IDF(token)
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
