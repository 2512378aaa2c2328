package batch

import "math/bits"

// Bitset is a dense bit array: the validity bitmap of a typed column,
// and the heart of algo's IEJoin (positions of already-visited tuples in
// the first sort order). Scanning runs of set bits word-by-word is what
// gives both their small constants compared to a per-element loop. It
// lives here, below plan, so that plan can name batch.Column in a
// columnar UDF's signature.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns a Bitset of n bits, all clear.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of addressable bits.
func (b *Bitset) Len() int { return b.n }

// Set marks bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// ScanRange calls visit for every set bit in [from, to), in ascending
// order. visit returning a non-nil error aborts the scan.
func (b *Bitset) ScanRange(from, to int, visit func(i int) error) error {
	if from < 0 {
		from = 0
	}
	if to > b.n {
		to = b.n
	}
	if from >= to {
		return nil
	}
	firstWord, lastWord := from>>6, (to-1)>>6
	for w := firstWord; w <= lastWord; w++ {
		word := b.words[w]
		if word == 0 {
			continue
		}
		// Mask off bits below `from` in the first word and at/above
		// `to` in the last word.
		if w == firstWord {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		if w == lastWord && (to&63) != 0 {
			word &= (1 << (uint(to) & 63)) - 1
		}
		for word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if err := visit(i); err != nil {
				return err
			}
			word &= word - 1
		}
	}
	return nil
}

// Count returns the number of set bits in [0, n).
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [from, to).
func (b *Bitset) CountRange(from, to int) int {
	if from < 0 {
		from = 0
	}
	if to > b.n {
		to = b.n
	}
	if from >= to {
		return 0
	}
	firstWord, lastWord := from>>6, (to-1)>>6
	c := 0
	for w := firstWord; w <= lastWord; w++ {
		word := b.words[w]
		if w == firstWord {
			word &= ^uint64(0) << (uint(from) & 63)
		}
		if w == lastWord && (to&63) != 0 {
			word &= (1 << (uint(to) & 63)) - 1
		}
		c += bits.OnesCount64(word)
	}
	return c
}
