package metrics

import (
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"

	"repro/internal/strutil"
)

// This file implements the reusable form of Prepared: a Prepared created by
// NewReusable owns a set of growable buffers and can be Reset onto a new
// raw value, recomputing the requested derived forms into those buffers
// with zero heap allocations in steady state. It is the serving-path
// counterpart of Prepare — one reusable Prepared per (attribute, side)
// lives in a pooled scoring scratch and is reset once per scored pair.
//
// The string-typed derived forms (norm, entities, abbr, compact) are views
// over the reusable byte buffers, built with unsafe.String. That makes the
// usual string immutability guarantee conditional, so the reuse contract
// is strict and narrow:
//
//   - Every derived form of a reusable Prepared — strings, slices, map
//     contents — is valid only until the next Reset. Nothing may retain
//     them across Resets (the scoring path only writes float64s out).
//   - The one map (the entity set) is cleared at the start of each Reset,
//     before any buffer is overwritten, so it never holds a key whose
//     bytes have been reused.
//   - A reusable Prepared is owned by one goroutine at a time (the pooled
//     scratch guarantees this); the derived forms are read-only between
//     Resets.
//
// All derived forms are byte-identical to the ones Prepare computes, which
// the equivalence tests in reuse_test.go pin on fuzzed values.

// reuseState holds the growable buffers of one reusable Prepared.
type reuseState struct {
	normBuf []byte
	runes   []rune

	tokens     []string
	tokenRunes [][]rune
	distinct   []string
	counts     []int

	entityBuf    []byte
	entityEnds   []int
	entities     []string
	entityRunes  [][]rune
	entityRFlat  []rune
	entityFields [][]string
	entityFFlat  []string

	abbrBuf    []byte
	compactBuf []byte
	numBuf     []byte
}

// NewReusable returns a Prepared that supports Reset: its derived forms are
// computed into reusable buffers instead of fresh allocations. See the
// file comment for the aliasing contract.
func NewReusable() *Prepared {
	return &Prepared{
		scratch:   &reuseState{},
		entitySet: make(map[string]struct{}),
	}
}

// bview is the unsafe view of a byte-buffer range as a string. The caller
// owns b and promises not to mutate it while the string is reachable — the
// Reset contract above.
func bview(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Reset re-points a reusable Prepared at a new raw value and eagerly
// computes the derived forms named by needs into the reusable buffers
// (Materialize semantics: prerequisites are included). Forms not requested
// fall back to the ordinary lazy accessors, which allocate fresh — correct,
// just not free. Panics when the Prepared was not built by NewReusable.
func (p *Prepared) Reset(raw string, needs Need) {
	st := p.scratch
	if st == nil {
		panic("metrics: Reset on a Prepared not built by NewReusable")
	}
	// Clear the entity set before any buffer is overwritten: its keys may
	// alias the previous cycle's bytes.
	clear(p.entitySet)
	*p = Prepared{raw: raw, scratch: st, entitySet: p.entitySet}

	wantNorm := needs&(NeedNorm|NeedRunes|NeedTokens|NeedTokenRunes|NeedDistinctTokens|NeedAbbr|NeedCompact) != 0
	wantRunes := needs&(NeedRunes|NeedTokenRunes) != 0
	wantTokens := needs&(NeedTokens|NeedTokenRunes|NeedDistinctTokens|NeedAbbr) != 0
	wantTokenRunes := needs&NeedTokenRunes != 0

	if wantNorm {
		st.normBuf = strutil.AppendNormalized(st.normBuf[:0], raw)
		p.norm = bview(st.normBuf)
		p.hasNorm = true
	}
	if wantRunes {
		st.runes = appendRunes(st.runes[:0], p.norm)
		p.runes = st.runes
		p.hasRunes = true
	}
	if wantTokens {
		p.resetTokens(wantTokenRunes)
	}
	if needs&NeedDistinctTokens != 0 {
		st.distinct, st.counts = appendDistinct(st.distinct, st.counts, p.tokens)
		p.distinct, p.counts = st.distinct, st.counts
		p.hasDistinct = true
	}
	if needs&NeedEntities != 0 {
		p.resetEntities()
	}
	if needs&NeedAbbr != 0 {
		st.abbrBuf = st.abbrBuf[:0]
		for _, t := range p.tokens {
			r, _ := utf8.DecodeRuneInString(t)
			st.abbrBuf = utf8.AppendRune(st.abbrBuf, r)
		}
		p.abbr = bview(st.abbrBuf)
		p.hasAbbr = true
	}
	if needs&NeedCompact != 0 {
		st.compactBuf = st.compactBuf[:0]
		for i := 0; i < len(p.norm); i++ {
			if p.norm[i] != ' ' {
				st.compactBuf = append(st.compactBuf, p.norm[i])
			}
		}
		p.compact = bview(st.compactBuf)
		p.hasCompact = true
	}
	if needs&NeedNum != 0 {
		p.num, p.numOK = parseNumberReuse(raw, st)
		p.hasNum = true
	}
}

// resetTokens splits the normalized form into the reusable token slices.
// Tokens are substrings of p.norm; token runes (when requested) are
// subslices of the shared rune buffer, which tokenization walks in lockstep
// with the byte positions.
func (p *Prepared) resetTokens(withRunes bool) {
	st := p.scratch
	st.tokens = st.tokens[:0]
	if st.tokens == nil {
		st.tokens = []string{} // Tokens() is contractually never nil
	}
	st.tokenRunes = st.tokenRunes[:0]
	bs, rs := -1, 0 // start of the current token (byte index, rune index)
	ri := 0
	for bi, r := range p.norm {
		if r == ' ' {
			if bs >= 0 {
				st.tokens = append(st.tokens, p.norm[bs:bi])
				if withRunes {
					st.tokenRunes = append(st.tokenRunes, st.runes[rs:ri])
				}
				bs = -1
			}
		} else if bs < 0 {
			bs, rs = bi, ri
		}
		ri++
	}
	if bs >= 0 {
		st.tokens = append(st.tokens, p.norm[bs:])
		if withRunes {
			st.tokenRunes = append(st.tokenRunes, st.runes[rs:ri])
		}
	}
	p.tokens = st.tokens
	p.hasTokens = true
	if withRunes {
		p.tokenRunes = st.tokenRunes
		p.hasTokenRunes = true
	}
}

// resetEntities computes the entity split and its per-entity rune/field
// views into the reusable buffers.
func (p *Prepared) resetEntities() {
	st := p.scratch
	st.entityBuf, st.entityEnds = strutil.AppendEntitySplit(st.entityBuf[:0], st.entityEnds[:0], p.raw)
	st.entities = st.entities[:0]
	st.entityRunes = st.entityRunes[:0]
	st.entityRFlat = st.entityRFlat[:0]
	st.entityFields = st.entityFields[:0]
	st.entityFFlat = st.entityFFlat[:0]
	start := 0
	for _, end := range st.entityEnds {
		e := bview(st.entityBuf[start:end])
		start = end
		st.entities = append(st.entities, e)
		p.entitySet[e] = struct{}{}

		rlo := len(st.entityRFlat)
		st.entityRFlat = appendRunes(st.entityRFlat, e)
		st.entityRunes = append(st.entityRunes, st.entityRFlat[rlo:len(st.entityRFlat):len(st.entityRFlat)])

		flo := len(st.entityFFlat)
		st.entityFFlat = appendSpaceFields(st.entityFFlat, e)
		st.entityFields = append(st.entityFields, st.entityFFlat[flo:len(st.entityFFlat):len(st.entityFFlat)])
	}
	p.entities = st.entities
	if p.entities == nil {
		p.entities = []string{} // SplitEntities is contractually never nil
	}
	p.entityRunes = st.entityRunes
	p.entityFields = st.entityFields
	p.hasEntities = true
}

// appendRunes appends the runes of s to dst.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// appendSpaceFields appends the space-separated fields of an
// already-normalized string (single ASCII spaces, no leading/trailing) to
// dst; the fields are substrings of s. Matches strings.Fields on such
// input.
func appendSpaceFields(dst []string, s string) []string {
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// parseNumberReuse is parseNumber without its failure allocations: the
// currency/thousands cleanup writes into the reusable buffer, and a full
// syntax check runs before strconv.ParseFloat so the common non-numeric
// value (a text attribute fed to a numeric metric) never constructs a
// *strconv.NumError. Accept/reject and values are identical to
// parseNumber's.
func parseNumberReuse(s string, st *reuseState) (float64, bool) {
	var cleaned string
	if strings.ContainsAny(s, "$,£€") {
		st.numBuf = st.numBuf[:0]
		for _, r := range s {
			switch r {
			case '$', ',', '£', '€':
			default:
				st.numBuf = utf8.AppendRune(st.numBuf, r)
			}
		}
		cleaned = strings.TrimSpace(bview(st.numBuf))
	} else {
		cleaned = strings.TrimSpace(s)
	}
	if !floatSyntaxPlausible(cleaned) {
		return 0, false
	}
	v, err := strconv.ParseFloat(cleaned, 64)
	return v, err == nil
}

// floatSyntaxPlausible reports whether s could be accepted by
// strconv.ParseFloat. It is exact for the plain decimal grammar and for
// inf/infinity/nan; strings with digit-separating underscores or a hex
// prefix are passed through as plausible (ParseFloat decides — those are
// vanishingly rare in attribute data, and a failed parse merely allocates
// the error it always used to). It never returns false for a string
// ParseFloat accepts.
func floatSyntaxPlausible(s string) bool {
	if len(s) == 0 {
		return false
	}
	rest := s
	if rest[0] == '+' || rest[0] == '-' {
		rest = rest[1:]
	}
	if strings.EqualFold(rest, "inf") || strings.EqualFold(rest, "infinity") || strings.EqualFold(rest, "nan") {
		return true
	}
	if strings.ContainsRune(rest, '_') {
		return true // underscore placement rules: let ParseFloat decide
	}
	if len(rest) > 1 && rest[0] == '0' && (rest[1] == 'x' || rest[1] == 'X') {
		return true // hex float: let ParseFloat decide
	}
	// Plain decimal: digits [ '.' digits ] [ (e|E) [sign] digits ], at
	// least one digit in the mantissa.
	i, sawDigit := 0, false
	for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
		sawDigit = true
	}
	if i < len(rest) && rest[i] == '.' {
		i++
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
			sawDigit = true
		}
	}
	if !sawDigit {
		return false
	}
	if i == len(rest) {
		return true
	}
	if rest[i] != 'e' && rest[i] != 'E' {
		return false
	}
	i++
	if i < len(rest) && (rest[i] == '+' || rest[i] == '-') {
		i++
	}
	if i == len(rest) {
		return false
	}
	for ; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return false
		}
	}
	return true
}
