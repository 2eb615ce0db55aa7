package metrics

import (
	"math"
	"strings"

	"repro/internal/strutil"
)

// The difference metrics below implement the hierarchy of paper Figure 5.
// They return 1 when a difference indicative of inequivalence is present and
// 0 otherwise (or a count for the counting metrics), so that larger values
// mean "more different" — the opposite orientation of similarity metrics.
// As in similarity.go, each catalog metric has a string reference form and a
// *Prepared core; the string form delegates to the core.

// NonSubstring is the entity-name difference metric: 1 if neither normalized
// value is a substring of the other. Missing values are treated as
// uninformative (0).
func NonSubstring(a, b string) float64 {
	return nonSubstringP(Prepare(a), Prepare(b), nil)
}

func nonSubstringP(pa, pb *Prepared, _ *Scratch) float64 {
	na, nb := pa.Norm(), pb.Norm()
	if na == "" || nb == "" {
		return 0
	}
	if strutil.SubstringOfEither(na, nb) {
		return 0
	}
	return 1
}

// NonPrefix is 1 if neither normalized value is a prefix of the other.
func NonPrefix(a, b string) float64 {
	return nonPrefixP(Prepare(a), Prepare(b), nil)
}

func nonPrefixP(pa, pb *Prepared, _ *Scratch) float64 {
	na, nb := pa.Norm(), pb.Norm()
	if na == "" || nb == "" {
		return 0
	}
	if strutil.PrefixOfEither(na, nb) {
		return 0
	}
	return 1
}

// NonSuffix is 1 if neither normalized value is a suffix of the other.
func NonSuffix(a, b string) float64 {
	return nonSuffixP(Prepare(a), Prepare(b), nil)
}

func nonSuffixP(pa, pb *Prepared, _ *Scratch) float64 {
	na, nb := pa.Norm(), pb.Norm()
	if na == "" || nb == "" {
		return 0
	}
	if strutil.SuffixOfEither(na, nb) {
		return 0
	}
	return 1
}

// abbrPair returns the first-letter abbreviation of each value and whether
// both are non-empty.
func abbrPair(a, b string) (string, string, bool) {
	aa := strutil.Abbreviation(a)
	ab := strutil.Abbreviation(b)
	return aa, ab, aa != "" && ab != ""
}

// AbbrNonSubstring is 1 if the first-letter abbreviation of one value is not
// a substring of the other value's abbreviation, and the abbreviation of one
// value is also not a substring of the other full value (covers
// "VLDB" vs "Very Large Data Bases").
func AbbrNonSubstring(a, b string) float64 {
	return abbrNonSubstringP(Prepare(a), Prepare(b), nil)
}

func abbrNonSubstringP(pa, pb *Prepared, _ *Scratch) float64 {
	aa, ab := pa.Abbr(), pb.Abbr()
	if aa == "" || ab == "" {
		return 0
	}
	if strings.Contains(aa, ab) || strings.Contains(ab, aa) {
		return 0
	}
	// Abbreviation of one side may match the raw text of the other
	// (e.g. a = "vldb", b = "very large data bases": abbr(b) == "vldb").
	if strings.Contains(pa.Compact(), ab) || strings.Contains(pb.Compact(), aa) {
		return 0
	}
	return 1
}

// AbbrNonPrefix is 1 if neither abbreviation is a prefix of the other.
func AbbrNonPrefix(a, b string) float64 {
	aa, ab, ok := abbrPair(a, b)
	if !ok {
		return 0
	}
	if strings.HasPrefix(aa, ab) || strings.HasPrefix(ab, aa) {
		return 0
	}
	return 1
}

// AbbrNonSuffix is 1 if neither abbreviation is a suffix of the other.
func AbbrNonSuffix(a, b string) float64 {
	aa, ab, ok := abbrPair(a, b)
	if !ok {
		return 0
	}
	if strings.HasSuffix(aa, ab) || strings.HasSuffix(ab, aa) {
		return 0
	}
	return 1
}

// DiffCardinality is the entity-set difference metric: 1 if the two sets
// contain different numbers of entity names. Empty sets are uninformative.
func DiffCardinality(a, b string) float64 {
	return diffCardinalityP(Prepare(a), Prepare(b), nil)
}

func diffCardinalityP(pa, pb *Prepared, _ *Scratch) float64 {
	ea, eb := pa.Entities(), pb.Entities()
	if len(ea) == 0 || len(eb) == 0 {
		return 0
	}
	if len(ea) != len(eb) {
		return 1
	}
	return 0
}

// DistinctEntity counts the entity names that appear in exactly one of the
// two sets, with fuzzy name matching (an entity counts as shared when some
// entity on the other side has Jaro-Winkler similarity ≥ 0.9, which absorbs
// initials and typos). This is the paper's distinct-entity metric from
// Example 1.
func DistinctEntity(a, b string) float64 {
	var s Scratch
	return distinctEntityP(Prepare(a), Prepare(b), &s)
}

func distinctEntityP(pa, pb *Prepared, s *Scratch) float64 {
	if len(pa.Entities()) == 0 || len(pb.Entities()) == 0 {
		return 0
	}
	distinct := 0
	distinct += countUnmatchedP(pa, pb, s)
	distinct += countUnmatchedP(pb, pa, s)
	return float64(distinct)
}

func countUnmatchedP(from, against *Prepared, s *Scratch) int {
	n := 0
	for i := range from.Entities() {
		matched := false
		for j := range against.Entities() {
			if entityNamesMatchP(from, i, against, j, s) {
				matched = true
				break
			}
		}
		if !matched {
			n++
		}
	}
	return n
}

// entityNamesMatchP reports whether two normalized entity names plausibly
// refer to the same entity: high string similarity, or matching surname with
// compatible initials ("t brinkhoff" vs "thomas brinkhoff"). Entity names
// from SplitEntities are already normalized, so their cached runes are
// exactly what JaroWinkler would derive.
func entityNamesMatchP(pa *Prepared, i int, pb *Prepared, j int, s *Scratch) bool {
	if pa.Entities()[i] == pb.Entities()[j] {
		return true
	}
	if jaroWinklerRunes(pa.EntityRunes()[i], pb.EntityRunes()[j], s) >= 0.9 {
		return true
	}
	ta, tb := pa.EntityFields()[i], pb.EntityFields()[j]
	if len(ta) == 0 || len(tb) == 0 {
		return false
	}
	// Same last token (surname) and first tokens share an initial.
	if ta[len(ta)-1] == tb[len(tb)-1] && ta[0][0] == tb[0][0] {
		return true
	}
	return false
}

// YearDiff is the numeric difference metric specialized for year-like
// attributes: 1 if both values parse as numbers and differ, 0 otherwise.
// It realizes the paper's running-example rule r_i[Year] != r_j[Year].
func YearDiff(a, b string) float64 {
	return yearDiffP(Prepare(a), Prepare(b), nil)
}

func yearDiffP(pa, pb *Prepared, _ *Scratch) float64 {
	x, okA := pa.Num()
	y, okB := pb.Num()
	if !okA || !okB {
		return 0
	}
	if x != y {
		return 1
	}
	return 0
}

// NumericGap returns the relative numeric gap |x-y|/max(|x|,|y|) in [0,1];
// 0 when either value is unparseable (uninformative) or both are zero.
func NumericGap(a, b string) float64 {
	return numericGapP(Prepare(a), Prepare(b), nil)
}

func numericGapP(pa, pb *Prepared, _ *Scratch) float64 {
	x, okA := pa.Num()
	y, okB := pb.Num()
	if !okA || !okB {
		return 0
	}
	m := math.Max(math.Abs(x), math.Abs(y))
	if m == 0 {
		return 0
	}
	g := math.Abs(x-y) / m
	if g > 1 {
		return 1
	}
	return g
}

// DiffKeyToken counts the key (discriminating) tokens contained by exactly
// one of the two text values. A token is discriminating when its corpus IDF
// is at or above the corpus's key-token threshold; with a nil corpus every
// token of length ≥ 4 counts as key. This is the paper's diff-key-token
// metric for text-description attributes.
func DiffKeyToken(a, b string, c *Corpus) float64 {
	return diffKeyTokenP(Prepare(a), Prepare(b), c, nil)
}

func diffKeyTokenP(pa, pb *Prepared, c *Corpus, _ *Scratch) float64 {
	ta, _ := pa.DistinctTokens()
	tb, _ := pb.DistinctTokens()
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	return float64(unsharedKeyTokens(ta, tb, c))
}

// unsharedKeyTokens counts the key tokens found in exactly one of two
// ascending distinct-token slices, by a linear merge.
//
//vetkit:hotpath
func unsharedKeyTokens(a, b []string, c *Corpus) int {
	n, i, j := 0, 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			if isKeyToken(a[i], c) {
				n++
			}
			i++
		case i == len(a) || b[j] < a[i]:
			if isKeyToken(b[j], c) {
				n++
			}
			j++
		default:
			i++
			j++
		}
	}
	return n
}

//vetkit:hotpath
func isKeyToken(t string, c *Corpus) bool {
	if c == nil {
		return len(t) >= 4
	}
	return c.IsKeyToken(t)
}
