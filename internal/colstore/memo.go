package colstore

import "fluodb/internal/bootstrap"

// WordMemo is an open-addressed index over fixed-stride word-code keys
// (KeyWord codes, usually plus a null-bit word): entry e's key is
// keys[e*stride:(e+1)*stride], slots holds 1-based entry indices (0 =
// empty), and the payload lives with the owner in arrays indexed by
// entry. A lookup stages its key past the held keys, so a miss adds it
// without copying. It is the one memo behind the engine's group and
// join memos and the tri-state kernel's keyed slots.
type WordMemo struct {
	keys   []uint64
	slots  []int32
	mask   uint64
	stride int
}

// Entries is the number of keys held.
func (m *WordMemo) Entries() int { return len(m.keys) / m.stride }

// Reset drops every entry, keeps the capacity and sets the key width.
func (m *WordMemo) Reset(stride int) {
	clear(m.slots)
	m.keys = m.keys[:0]
	m.stride = stride
}

// Stage returns the scratch key past the last entry for the caller to
// fill before Find/Add.
func (m *WordMemo) Stage() []uint64 {
	n := len(m.keys)
	if cap(m.keys) < n+m.stride {
		grown := make([]uint64, n, (n+m.stride)*2+m.stride)
		copy(grown, m.keys)
		m.keys = grown
	}
	return m.keys[n : n+m.stride]
}

// Find returns the entry whose key equals words (h = MemoHash(words)),
// or -1. An empty table probes nothing.
func (m *WordMemo) Find(words []uint64, h uint64) int {
	for j := h & m.mask; len(m.slots) != 0; j = (j + 1) & m.mask {
		e := int(m.slots[j]) - 1
		if e < 0 {
			break
		}
		match := true
		for x, w := range m.keys[e*m.stride : (e+1)*m.stride] {
			if w != words[x] {
				match = false
				break
			}
		}
		if match {
			return e
		}
	}
	return -1
}

// Find1 is Find for a one-word key (stride 1), h = MemoHash1(w): the
// probe loop of the tri-state kernel's keyed slots.
func (m *WordMemo) Find1(w, h uint64) int {
	if len(m.slots) == 0 {
		return -1
	}
	for j := h & m.mask; ; j = (j + 1) & m.mask {
		e := int(m.slots[j]) - 1
		if e < 0 || m.keys[e] == w {
			return e
		}
	}
}

// Add appends words (absent, by a Find miss) as the next entry and
// returns its index, growing the slot table at 7/8 load.
func (m *WordMemo) Add(words []uint64, h uint64) int {
	e := m.Entries()
	if (e+1)*8 > len(m.slots)*7 {
		m.grow()
	}
	copy(m.Stage(), words) // a no-op when words is the staged key itself
	m.keys = m.keys[:len(m.keys)+m.stride]
	m.insert(h, e)
	return e
}

// MemBytes is the memo's pinned size: key words and slots.
func (m *WordMemo) MemBytes() int64 {
	return 8*int64(cap(m.keys)) + 4*int64(cap(m.slots))
}

// insert claims the first free slot on h's probe chain for entry e.
func (m *WordMemo) insert(h uint64, e int) {
	j := h & m.mask
	for m.slots[j] != 0 {
		j = (j + 1) & m.mask
	}
	m.slots[j] = int32(e + 1)
}

// grow doubles the slot table and rehashes the held entries.
func (m *WordMemo) grow() {
	n := len(m.slots) * 2
	if n < 64 {
		n = 64
	}
	if cap(m.slots) >= n {
		m.slots = m.slots[:n]
		clear(m.slots)
	} else {
		m.slots = make([]int32, n)
	}
	m.mask = uint64(n - 1)
	for e, n := 0, m.Entries(); e < n; e++ {
		m.insert(MemoHash(m.keys[e*m.stride:(e+1)*m.stride]), e)
	}
}

// memoSeed starts every key hash.
const memoSeed = 0x9E3779B97F4A7C15

// MemoHash is the WordMemo hash of a staged key.
func MemoHash(words []uint64) uint64 {
	h := uint64(memoSeed)
	for _, w := range words {
		h = bootstrap.Mix64(h ^ w)
	}
	return h
}

// MemoHash1 is MemoHash of the one-word key w.
func MemoHash1(w uint64) uint64 { return bootstrap.Mix64(memoSeed ^ w) }
