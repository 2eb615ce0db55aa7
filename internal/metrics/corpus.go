package metrics

import (
	"math"
	"sort"

	"repro/internal/strutil"
)

// Corpus holds token document frequencies over a collection of attribute
// values. It supplies IDF weights for CosineTFIDF and the key-token
// decision for DiffKeyToken. Build one corpus per attribute from all values of
// that attribute in the workload's records.
type Corpus struct {
	docs     int
	df       map[string]int
	idf      map[string]float64 // precomputed IDF per known token
	unkIDF   float64            // IDF of an unknown token (df = 0)
	keyIDF   float64            // IDF threshold above which a token is "key"
	maxIDF   float64
	keyQuant float64 // quantile used to derive keyIDF, kept for String()
}

// NewCorpus builds a Corpus from the given attribute values. keyQuantile in
// (0,1) selects the IDF threshold for key tokens: tokens whose IDF is in the
// top (1-keyQuantile) fraction are discriminating. A typical value is 0.5
// (the rarer half of tokens are key).
func NewCorpus(values []string, keyQuantile float64) *Corpus {
	if keyQuantile <= 0 || keyQuantile >= 1 {
		keyQuantile = 0.5
	}
	c := &Corpus{df: make(map[string]int), keyQuant: keyQuantile}
	for _, v := range values {
		c.docs++
		for t := range strutil.TokenSet(v) {
			c.df[t]++
		}
	}
	c.maxIDF = math.Log(float64(c.docs + 1)) // df=0 ceiling
	c.precomputeIDF()
	c.deriveKeyIDF()
	return c
}

// precomputeIDF materializes the IDF of every known token (and the unknown
// ceiling) once, so the per-token hot-path lookup is one map access with no
// math.Log. Values come from the exact same expression IDF historically
// evaluated per call, so they are bit-identical.
func (c *Corpus) precomputeIDF() {
	c.unkIDF = math.Log(float64(c.docs+1)) + 1
	c.idf = make(map[string]float64, len(c.df))
	for t, df := range c.df {
		c.idf[t] = math.Log(float64(c.docs+1)/float64(df+1)) + 1
	}
}

// deriveKeyIDF computes the key-token IDF threshold from the document
// frequencies at the corpus's quantile. It is deterministic in (docs, df,
// keyQuant), which is what makes a snapshot round trip bit-exact.
func (c *Corpus) deriveKeyIDF() {
	if len(c.df) == 0 {
		c.keyIDF = c.maxIDF
		return
	}
	idfs := make([]float64, 0, len(c.df))
	for t := range c.df {
		idfs = append(idfs, c.IDF(t))
	}
	sort.Float64s(idfs)
	idx := int(c.keyQuant * float64(len(idfs)))
	if idx >= len(idfs) {
		idx = len(idfs) - 1
	}
	c.keyIDF = idfs[idx]
}

// Docs returns the number of documents (attribute values) in the corpus.
func (c *Corpus) Docs() int { return c.docs }

// IDF returns the smoothed inverse document frequency
// log((N+1)/(df+1)) + 1 of the token. Unknown tokens get the maximum IDF.
//
//vetkit:hotpath
func (c *Corpus) IDF(token string) float64 {
	if v, ok := c.idf[token]; ok {
		return v
	}
	return c.unkIDF
}

// IsKeyToken reports whether the token is discriminating: its IDF meets the
// corpus threshold (rare tokens identify entities).
//
//vetkit:hotpath
func (c *Corpus) IsKeyToken(token string) bool {
	if c.docs == 0 {
		return len(token) >= 4
	}
	return c.IDF(token) >= c.keyIDF
}
