package metrics

import "fmt"

// AttrType classifies an attribute for metric selection, following the
// value-type hierarchy of paper Figure 5.
type AttrType int

// Attribute value types.
const (
	EntityName  AttrType = iota // a single entity name (product name, venue)
	EntitySet                   // a set of entity names (author list)
	Text                        // free text description (title, description)
	Numeric                     // numeric value (year, price)
	Categorical                 // small closed domain (genre, gender)
)

// String returns the lowercase name of the attribute type.
func (t AttrType) String() string {
	switch t {
	case EntityName:
		return "entity-name"
	case EntitySet:
		return "entity-set"
	case Text:
		return "text"
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// Kind distinguishes similarity metrics (larger = more alike) from
// difference metrics (larger = more different).
type Kind int

// Metric kinds.
const (
	Similarity Kind = iota
	Difference
)

// String returns "sim" or "diff".
func (k Kind) String() string {
	if k == Difference {
		return "diff"
	}
	return "sim"
}

// Metric is a named basic metric bound to one attribute of a schema. Fn
// computes the metric on the two attribute values; the Corpus (possibly nil)
// carries corpus statistics for TF-IDF and key-token decisions. PFn, when
// non-nil, is the equivalent computation over Prepared values — the fast
// path used by Catalog.Compute and the feature store; it must return
// bit-identical results to Fn. The *Scratch passed to PFn provides the
// DP/flag buffers of the string cores; metrics that need none ignore it.
type Metric struct {
	Name  string // e.g. "title.cosine_tfidf" or "year.diff"
	Attr  int    // attribute index in the schema
	Kind  Kind   // similarity or difference
	Fn    func(a, b string, c *Corpus) float64
	PFn   func(a, b *Prepared, c *Corpus, s *Scratch) float64
	Needs Need // derived forms PFn reads (NeedAll when unset and PFn != nil)
}

// lift adapts a corpus-free binary metric to the catalog signature.
func lift(f func(a, b string) float64) func(string, string, *Corpus) float64 {
	return func(a, b string, _ *Corpus) float64 { return f(a, b) }
}

// pliftP adapts a corpus-free prepared metric to the catalog signature.
func pliftP(f func(a, b *Prepared, s *Scratch) float64) func(*Prepared, *Prepared, *Corpus, *Scratch) float64 {
	return func(a, b *Prepared, _ *Corpus, s *Scratch) float64 { return f(a, b, s) }
}

// ForAttribute returns the basic metrics appropriate for one attribute of
// the given type, named with the attribute name prefix. The selection
// follows Figure 5: every type gets similarity metrics; entity names get the
// non-substring family, entity sets get diff-cardinality/distinct-entity,
// text gets diff-key-token, numerics get the year/number difference.
func ForAttribute(name string, idx int, t AttrType) []Metric {
	mk := func(suffix string, k Kind, f func(string, string, *Corpus) float64,
		pf func(*Prepared, *Prepared, *Corpus, *Scratch) float64, needs Need) Metric {
		return Metric{Name: name + "." + suffix, Attr: idx, Kind: k, Fn: f, PFn: pf, Needs: needs}
	}
	switch t {
	case EntityName:
		return []Metric{
			mk("jaro_winkler", Similarity, lift(JaroWinkler), pliftP(jaroWinklerP), NeedRunes),
			mk("edit_sim", Similarity, lift(EditSimilarity), pliftP(editSimilarityP), NeedRunes),
			mk("jaccard", Similarity, lift(JaccardTokens), pliftP(jaccardTokensP), NeedDistinctTokens),
			mk("non_substring", Difference, lift(NonSubstring), pliftP(nonSubstringP), NeedNorm),
			mk("non_prefix", Difference, lift(NonPrefix), pliftP(nonPrefixP), NeedNorm),
			mk("non_suffix", Difference, lift(NonSuffix), pliftP(nonSuffixP), NeedNorm),
			mk("abbr_non_substring", Difference, lift(AbbrNonSubstring), pliftP(abbrNonSubstringP), NeedAbbr|NeedCompact),
		}
	case EntitySet:
		return []Metric{
			mk("jaccard_entities", Similarity, lift(JaccardEntities), pliftP(jaccardEntitiesP), NeedEntities),
			mk("monge_elkan", Similarity, lift(SymMongeElkan), pliftP(symMongeElkanP), NeedTokenRunes),
			mk("diff_cardinality", Difference, lift(DiffCardinality), pliftP(diffCardinalityP), NeedEntities),
			mk("distinct_entity", Difference, lift(DistinctEntity), pliftP(distinctEntityP), NeedEntities),
		}
	case Text:
		return []Metric{
			mk("cosine_tfidf", Similarity, CosineTFIDF, cosineTFIDFP, NeedDistinctTokens),
			mk("jaccard", Similarity, lift(JaccardTokens), pliftP(jaccardTokensP), NeedDistinctTokens),
			mk("lcs", Similarity, lift(LCS), pliftP(lcsP), NeedRunes),
			mk("overlap", Similarity, lift(OverlapTokens), pliftP(overlapTokensP), NeedDistinctTokens),
			mk("diff_key_token", Difference, DiffKeyToken, diffKeyTokenP, NeedDistinctTokens),
		}
	case Numeric:
		return []Metric{
			mk("num_sim", Similarity, lift(NumericSimilarity), pliftP(numericSimilarityP), NeedNum),
			mk("num_diff", Difference, lift(YearDiff), pliftP(yearDiffP), NeedNum),
			mk("num_gap", Difference, lift(NumericGap), pliftP(numericGapP), NeedNum),
		}
	case Categorical:
		return []Metric{
			mk("exact", Similarity, lift(func(a, b string) float64 {
				if NonSubstring(a, b) == 0 {
					return 1
				}
				return 0
			}), pliftP(func(a, b *Prepared, s *Scratch) float64 {
				if nonSubstringP(a, b, s) == 0 {
					return 1
				}
				return 0
			}), NeedNorm),
			mk("diff", Difference, lift(YearDiffOrExact), pliftP(yearDiffOrExactP), NeedNum|NeedRunes),
		}
	default:
		return nil
	}
}

// YearDiffOrExact is 1 when the values differ either numerically or as
// normalized strings (used for categorical attributes).
func YearDiffOrExact(a, b string) float64 {
	var s Scratch
	return yearDiffOrExactP(Prepare(a), Prepare(b), &s)
}

func yearDiffOrExactP(pa, pb *Prepared, s *Scratch) float64 {
	if d := yearDiffP(pa, pb, s); d == 1 {
		return 1
	}
	if editSimilarityP(pa, pb, s) < 1 {
		return 1
	}
	return 0
}

// Catalog is an ordered collection of basic metrics over a schema, together
// with the per-attribute corpora used by corpus-aware metrics.
type Catalog struct {
	Metrics []Metric
	Corpora []*Corpus // indexed by attribute; nil entries allowed
}

// NumAttrs returns 1 + the largest attribute index any metric references
// (the width a prepared-value row must have).
func (c *Catalog) NumAttrs() int {
	n := len(c.Corpora)
	for _, m := range c.Metrics {
		if m.Attr >= n {
			n = m.Attr + 1
		}
	}
	return n
}

// AttrNeeds aggregates the derived-form needs of the catalog's metrics per
// attribute (indexed 0..NumAttrs-1). Metrics without a declared Needs mask
// conservatively require everything.
func (c *Catalog) AttrNeeds() []Need {
	out := make([]Need, c.NumAttrs())
	for _, m := range c.Metrics {
		if m.PFn == nil {
			continue
		}
		n := m.Needs
		if n == 0 {
			n = NeedAll
		}
		out[m.Attr] |= n
	}
	return out
}

// emptyPrepared is the shared, fully materialized Prepared of the empty
// string, used for missing attribute values.
var emptyPrepared = Prepare("").Materialize()

// PrepareRow wraps the attribute values of one record as Prepared values,
// padded with empty values up to the catalog's attribute count. The result
// is not materialized; call Materialize on each entry before sharing across
// goroutines.
func (c *Catalog) PrepareRow(vals []string) []*Prepared {
	n := c.NumAttrs()
	out := make([]*Prepared, n)
	for i := range out {
		if i < len(vals) {
			out[i] = Prepare(vals[i])
		} else {
			out[i] = emptyPrepared
		}
	}
	return out
}

// Compute evaluates every metric in the catalog on one record pair, given
// the two records' attribute value slices. The result has one entry per
// metric, in catalog order. Each attribute value is prepared (normalized,
// tokenized, ...) at most once for the whole row.
func (c *Catalog) Compute(a, b []string) []float64 {
	out := make([]float64, len(c.Metrics))
	pa := make([]*Prepared, c.NumAttrs())
	pb := make([]*Prepared, c.NumAttrs())
	var s Scratch
	for i, m := range c.Metrics {
		var corpus *Corpus
		if m.Attr < len(c.Corpora) {
			corpus = c.Corpora[m.Attr]
		}
		if m.PFn != nil {
			out[i] = m.PFn(rowPrepared(pa, a, m.Attr), rowPrepared(pb, b, m.Attr), corpus, &s)
			continue
		}
		var va, vb string
		if m.Attr < len(a) {
			va = a[m.Attr]
		}
		if m.Attr < len(b) {
			vb = b[m.Attr]
		}
		out[i] = m.Fn(va, vb, corpus)
	}
	return out
}

// rowPrepared lazily fills the per-row Prepared cache for one attribute.
func rowPrepared(cache []*Prepared, vals []string, attr int) *Prepared {
	if cache[attr] == nil {
		if attr < len(vals) {
			cache[attr] = Prepare(vals[attr])
		} else {
			cache[attr] = emptyPrepared
		}
	}
	return cache[attr]
}

// ComputePreparedInto evaluates every metric into dst (len(c.Metrics)) given
// already-prepared attribute rows (as produced by PrepareRow). The prepared
// values must be materialized if the call happens concurrently. s provides
// the per-worker metric scratch; nil allocates a fresh one for the call.
//
//vetkit:hotpath
func (c *Catalog) ComputePreparedInto(dst []float64, pa, pb []*Prepared, s *Scratch) {
	if s == nil {
		s = &Scratch{} //vetkit:allow hotpath nil-scratch convenience path, cold
	}
	for i, m := range c.Metrics {
		var corpus *Corpus
		if m.Attr < len(c.Corpora) {
			corpus = c.Corpora[m.Attr]
		}
		if m.PFn != nil {
			dst[i] = m.PFn(pa[m.Attr], pb[m.Attr], corpus, s) //vetkit:allow hotpath metric kernels are alloc-free by contract (reuse tests pin them)
			continue
		}
		dst[i] = m.Fn(pa[m.Attr].Raw(), pb[m.Attr].Raw(), corpus) //vetkit:allow hotpath metric kernels are alloc-free by contract
	}
}

// Names returns the metric names in catalog order.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.Metrics))
	for _, m := range c.Metrics {
		names = append(names, m.Name)
	}
	return names
}
