package metrics

import "math/bits"

// Bit-parallel LCS-length computation (Allison–Dix recurrence, multiword):
// the column vector of the classic DP is kept in complemented incremental
// form — bit i of V is 1 iff D[i][j] == D[i-1][j] — and one text character
// updates all m pattern positions with a handful of word operations:
//
//	U  = V & M[c]
//	V' = (V + U) | (V &^ M[c])
//
// where M[c] marks the pattern positions holding character c and + is
// plain multiword addition (the carry ripples the increments upward). The
// LCS length is the number of zero bits among the low m bits of the final
// V. Every quantity is an exact integer, so the result is bit-identical to
// the O(m·n) dynamic program it replaces — the equivalence property tests
// in bitlcs_test.go pin that on fuzzed inputs.
//
// Cost is O(n·⌈m/64⌉ + m) instead of O(n·m): for the serving path's text
// attributes this turns the single hottest metric from compute-bound into
// a short word loop.

// bitLCSMin is the pattern length at which the bit-parallel path overtakes
// the register DP (mask construction costs O(m); under ~16 runes the plain
// DP's m·n cells are cheaper).
const bitLCSMin = 16

// runeIndex assigns small dense ids to the distinct runes of a pattern:
// ASCII through a version-stamped table (no clearing between calls), the
// rest through a reused map.
type runeIndex struct {
	ver      uint32
	asciiVer [128]uint32
	asciiID  [128]int32
	other    map[rune]int32
	n        int32
}

// begin starts a fresh assignment round.
//
//vetkit:hotpath
func (ri *runeIndex) begin() {
	ri.ver++
	if ri.ver == 0 { // uint32 wrap: stale stamps could collide
		ri.asciiVer = [128]uint32{}
		ri.ver = 1
	}
	if len(ri.other) > 0 {
		clear(ri.other)
	}
	ri.n = 0
}

// add returns the id of r, assigning the next dense id (and reporting
// fresh=true) on first sight this round.
//
//vetkit:hotpath
func (ri *runeIndex) add(r rune) (id int32, fresh bool) {
	if r < 128 {
		if ri.asciiVer[r] == ri.ver {
			return ri.asciiID[r], false
		}
		ri.asciiVer[r] = ri.ver
		ri.asciiID[r] = ri.n
		ri.n++
		return ri.n - 1, true
	}
	if ri.other == nil {
		ri.other = make(map[rune]int32) //vetkit:allow hotpath built once per Scratch, reused after
	}
	if id, ok := ri.other[r]; ok {
		return id, false
	}
	ri.other[r] = ri.n
	ri.n++
	return ri.n - 1, true
}

// lookup returns the id of r or -1.
//
//vetkit:hotpath
func (ri *runeIndex) lookup(r rune) int32 {
	if r < 128 {
		if ri.asciiVer[r] == ri.ver {
			return ri.asciiID[r]
		}
		return -1
	}
	if id, ok := ri.other[r]; ok {
		return id
	}
	return -1
}

// lcsLenBits computes the LCS length of pat and text. The pattern (ideally
// the shorter side) provides the bit dimension.
func lcsLenBits(pat, text []rune, s *Scratch) int {
	m := len(pat)
	w := (m + 63) / 64
	s.ri.begin()
	need := len(pat) * w // worst case: all runes distinct
	if cap(s.masks) < need {
		s.masks = make([]uint64, need)
	}
	masks := s.masks[:need]
	for i, c := range pat {
		id, fresh := s.ri.add(c)
		blk := masks[int(id)*w : int(id)*w+w]
		if fresh {
			for b := range blk {
				blk[b] = 0
			}
		}
		blk[i>>6] |= 1 << (i & 63)
	}
	if cap(s.vrow) < w {
		s.vrow = make([]uint64, w)
	}
	v := s.vrow[:w]
	for b := range v {
		v[b] = ^uint64(0)
	}
	for _, c := range text {
		id := s.ri.lookup(c)
		var mask []uint64
		if id >= 0 {
			mask = masks[int(id)*w : int(id)*w+w]
		}
		var carry uint64
		for b := 0; b < w; b++ {
			var mb uint64
			if mask != nil {
				mb = mask[b]
			}
			vb := v[b]
			u := vb & mb
			sum, c1 := bits.Add64(vb, u, carry)
			carry = c1
			v[b] = sum | (vb &^ mb)
		}
	}
	ones := 0
	for b := 0; b < w-1; b++ {
		ones += bits.OnesCount64(v[b])
	}
	last := v[w-1]
	if tail := uint(m & 63); tail != 0 {
		last &= (1 << tail) - 1
	}
	ones += bits.OnesCount64(last)
	return m - ones
}

// lcsLenDP is the register-blocked form of the classic two-row LCS DP,
// used below the bit-parallel cutoff. Identical cell values to the
// original loop (the diagonal/left values are just kept in registers).
func lcsLenDP(ra, rb []rune, s *Scratch) int {
	la, lb := len(ra), len(rb)
	prev, cur := s.i32s2(lb + 1)
	for j := range prev {
		prev[j] = 0
	}
	cur[0] = 0
	for i := 1; i <= la; i++ {
		c := ra[i-1]
		left := int32(0) // cur[j-1]
		diag := int32(0) // prev[j-1]
		for j := 1; j <= lb; j++ {
			up := prev[j]
			if c == rb[j-1] {
				left = diag + 1
			} else if up >= left {
				left = up
			}
			diag = up
			cur[j] = left
		}
		prev, cur = cur, prev
	}
	return int(prev[lb])
}

// levenshteinLen is the register-blocked two-row edit-distance DP: same
// cells as the original min3 loop, with the left/diagonal values kept in
// registers and int32 rows halving the cache traffic.
func levenshteinLen(ra, rb []rune, s *Scratch) int {
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	la, lb := len(ra), len(rb)
	prev, cur := s.i32s2(lb + 1)
	for j := range prev {
		prev[j] = int32(j)
	}
	for i := 1; i <= la; i++ {
		c := ra[i-1]
		left := int32(i) // cur[j-1], column 0 of row i
		diag := prev[0]  // prev[j-1]
		cur[0] = left
		for j := 1; j <= lb; j++ {
			up := prev[j]
			m := diag
			if c != rb[j-1] {
				m++
			}
			if up+1 < m {
				m = up + 1
			}
			if left+1 < m {
				m = left + 1
			}
			diag = up
			left = m
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return int(prev[lb])
}

// wordMasks builds the single-word match masks of a pattern of at most 64
// runes: afterwards s.ri maps each distinct rune of pat to an id, and bit i
// of masks[id] is set iff pat[i] is that rune. maskOf reads them back.
//
//vetkit:hotpath
func (s *Scratch) wordMasks(pat []rune) []uint64 {
	s.ri.begin()
	if cap(s.masks) < len(pat) {
		s.masks = make([]uint64, len(pat)) //vetkit:allow hotpath amortized scratch growth
	}
	masks := s.masks[:len(pat)]
	for i, c := range pat {
		id, fresh := s.ri.add(c)
		if fresh {
			masks[id] = 0
		}
		masks[id] |= 1 << i
	}
	return masks
}

// maskOf returns the positions of r in the pattern wordMasks last indexed.
//
//vetkit:hotpath
func (s *Scratch) maskOf(masks []uint64, r rune) uint64 {
	if id := s.ri.lookup(r); id >= 0 {
		return masks[id]
	}
	return 0
}

// levenshteinBits is Myers' bit-vector edit distance in Hyyrö's
// formulation, for a pattern of 1..64 runes and a non-empty text. Bit i of
// pv (mv) records that D[i+1][j] - D[i][j] is +1 (-1) for the current text
// column j; one text rune updates the whole column with a few word
// operations, and score tracks the bottom cell D[m][j]. The top row
// D[0][j] = j shifts a +1 horizontal delta in at bit 0. Every quantity is
// an exact integer, so the distance equals the DP's.
//
//vetkit:hotpath
func levenshteinBits(pat, text []rune, s *Scratch) int {
	masks := s.wordMasks(pat)
	top := uint64(1) << (len(pat) - 1)
	pv, mv := ^uint64(0), uint64(0)
	score := len(pat)
	for _, c := range text {
		eq := s.maskOf(masks, c)
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&top != 0 {
			score++
		} else if mh&top != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// jaroCountsBits is jaroCountsDP's greedy matching with rb (1..64 runes)
// held as rune masks: the first unmatched rb position holding ra[i] inside
// i's window is the lowest set bit of mask[ra[i]] & window &^ matchedB,
// which is exactly the position the DP's left-to-right scan stops at. The
// matched ra runes are kept in order, so transpositions pair them with the
// matched rb positions in order, as the DP does.
//
//vetkit:hotpath
func jaroCountsBits(ra, rb []rune, window int, s *Scratch) (matches, transpositions int) {
	masks := s.wordMasks(rb)
	lb := len(rb)
	var matchedB uint64
	var matchedA [64]rune // matches <= lb <= 64
	for i, c := range ra {
		lo := max(i-window, 0)
		if lo >= lb {
			break // every later window starts past rb too
		}
		hi := min(i+window+1, lb)
		cand := s.maskOf(masks, c) & (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1) &^ matchedB
		if cand == 0 {
			continue
		}
		matchedB |= cand & -cand
		matchedA[matches] = c
		matches++
	}
	k := 0
	for mb := matchedB; mb != 0; mb &= mb - 1 {
		if matchedA[k] != rb[bits.TrailingZeros64(mb)] {
			transpositions++
		}
		k++
	}
	return matches, transpositions
}
