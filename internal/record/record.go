// Package record defines the data items the sorter operates on and the
// benchmark input distributions used by the paper's evaluation.
//
// The paper sorts 32-bit integers (4 bytes each: "an input size of
// 33554432 integers corresponds to 134217728 bytes").  We follow it and
// use uint32 keys with a fixed 4-byte on-disk encoding, unchanged: little
// endian on every host, so where the host is too encoding is a copy.
// The paper's public benchmark suite contains "eight different
// benchmarks corresponding to eight different inputs"; the exact
// distributions are not listed in the text, so we provide the eight
// distributions canonical in the parallel-sorting literature the paper
// builds on (Blelloch et al., Li & Sevcik, Shi & Schaeffer).
package record

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"unsafe"
)

// Key is one data item: a 32-bit unsigned integer, 4 bytes on disk.
type Key = uint32

// KeySize is the on-disk size of a Key in bytes.
const KeySize = 4

// HostLE reports whether a Key's memory holds its encoding: a little-endian host.
var HostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Bytes views keys as the bytes they occupy in memory, without a copy:
// their encoding where HostLE, else after DiskOrder.  Keys are only ever
// viewed as bytes, never bytes as keys, so no view is misaligned.
func Bytes(keys []Key) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(keys))), len(keys)*KeySize)
}

// DiskOrder converts keys in place between host and disk byte order,
// either way: nothing to do where HostLE, else the per-key loop.
func DiskOrder(keys []Key) {
	if !HostLE {
		decodeLoop(keys, Bytes(keys))
	}
}

// EncodeKeys appends the encoding of keys to dst and returns it: a copy
// where HostLE.
func EncodeKeys(dst []byte, keys []Key) []byte {
	if !HostLE {
		keys = slices.Clone(keys)
		DiskOrder(keys)
	}
	return append(dst, Bytes(keys)...)
}

// DecodeKeys decodes len(buf)/KeySize keys from buf, appending to dst,
// which grows once: a copy where HostLE.  It panics if len(buf) is not a
// multiple of KeySize.
func DecodeKeys(dst []Key, buf []byte) []Key {
	if len(buf)%KeySize != 0 {
		panic(fmt.Sprintf("record: buffer length %d not a multiple of %d", len(buf), KeySize))
	}
	off, n := len(dst), len(buf)/KeySize
	dst = slices.Grow(dst, n)[:off+n]
	copy(Bytes(dst[off:]), buf)
	DiskOrder(dst[off:])
	return dst
}

// decodeLoop is DiskOrder on a big-endian host: it fills keys from the
// encoding in buf, one load per key, so buf may be Bytes(keys).
func decodeLoop(keys []Key, buf []byte) {
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint32(buf[i*KeySize:])
	}
}

// sortCutoff is the length below which SortKeys sorts by insertion: the
// counting passes cost more than the few hundred comparisons they save.
const sortCutoff = 64

// repeatShare sets when a pass places keys by runOfFour: when its largest
// bucket holds more than 1/repeatShare of the load.  Below that a digit
// rarely repeats within four keys, and the one-key loop is cheaper.
const repeatShare = 8

// SortKeys sorts keys in place, ascending: the one in-core sorter of the
// run formers.  From sortCutoff keys on it is an LSD radix sort through
// scratch, which it overwrites and which must be at least as long as keys
// (SortKeys panics otherwise, whatever the length, so a short scratch never
// corrupts a load that happens to be small).
//
// The passes are planned from the bits that vary, the OR of k^keys[0] over
// the load: the first pass sorts on the eight bits from the lowest varying
// bit up, each later one on the next eight, until no varying bit is left,
// so keys that differ only in bits lo…hi take ⌈(hi−lo+1)/8⌉ passes
// (zipf-s2's rank<<12 keys two, full-range keys four).  A pass whose digit
// is the same in every key (its histogram holds all n in one bucket) would
// move nothing and is skipped.  A pass whose largest bucket holds more than
// n/repeatShare keys places them four at a time (runOfFour).
func SortKeys(keys, scratch []Key) {
	n := len(keys)
	if len(scratch) < n {
		panic(fmt.Sprintf("record: SortKeys scratch holds %d keys, load has %d", len(scratch), n))
	}
	if n < sortCutoff {
		for i := 1; i < n; i++ {
			k, j := keys[i], i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j] = keys[j-1]
			}
			keys[j] = k
		}
		return
	}
	vary := varyingBits(keys)
	if vary == 0 {
		return
	}
	lo := uint(bits.TrailingZeros32(vary))
	// One counting pass builds every histogram, of the digits the plan sorts on.
	var count [KeySize][256]int
	for _, k := range keys {
		k >>= lo
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	src, dst := keys, scratch[:n]
	for pass := range count {
		shift := lo + uint(pass)*8
		if vary>>shift == 0 {
			break
		}
		if count[pass][src[0]>>shift&0xff] == n {
			continue
		}
		radixPass(src, dst, &count[pass], lo, pass)
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// varyingBits returns the bits in which some key of a non-empty load
// differs from keys[0].
func varyingBits(keys []Key) Key {
	k0, v := keys[0], Key(0)
	for _, k := range keys {
		v |= k ^ k0
	}
	return v
}

// radixPass moves src to dst stably ordered by the pass'th digit of a plan
// that starts at bit lo, k>>(lo+8·pass)&0xff, whose counts are hist.  The
// bucket offsets live in this frame, and the shift is computed here rather
// than taken as an argument: so the one-key loop keeps the shift count in
// CX and spills nothing (an argument shift was copied to CX every key).
func radixPass(src, dst []Key, hist *[256]int, lo uint, pass int) {
	var next [256]int
	sum, most := 0, 0
	for d, c := range hist {
		next[d], sum = sum, sum+c
		most = max(most, c)
	}
	shift := (lo + uint(pass)*8) & 31
	if most > len(src)/repeatShare {
		runOfFour(src, dst, &next, shift)
		return
	}
	for _, k := range src {
		d := k >> shift & 0xff
		dst[next[d]] = k
		next[d]++
	}
}

// runOfFour places the keys of src as radixPass's loop would, four at a
// time and the last len(src) mod 4 one by one.  Each step loads the four
// offsets first and corrects each by the keys before it in the step that
// share its digit.  In the one-key loop, a key whose digit repeats the
// previous key's waits for that key's increment of the offset; here only
// a step waits, for the step before it.  The compares compile to SETEQ,
// not to a branch.  The tail has its own loop: running radixPass's loop
// after this call instead cost that loop the shift's register.
func runOfFour(src, dst []Key, next *[256]int, shift uint) {
	i := 0
	for ; i+4 <= len(src); i += 4 {
		k := src[i : i+4 : i+4]
		d0, d1, d2, d3 := k[0]>>shift&0xff, k[1]>>shift&0xff, k[2]>>shift&0xff, k[3]>>shift&0xff
		o0 := next[d0]
		o1 := next[d1] + b2i(d1 == d0)
		o2 := next[d2] + b2i(d2 == d0) + b2i(d2 == d1)
		o3 := next[d3] + b2i(d3 == d0) + b2i(d3 == d1) + b2i(d3 == d2)
		next[d0] = o0 + 1
		next[d1] = o1 + 1
		next[d2] = o2 + 1
		next[d3] = o3 + 1
		dst[o0] = k[0]
		dst[o1] = k[1]
		dst[o2] = k[2]
		dst[o3] = k[3]
	}
	for _, k := range src[i:] {
		d := k >> shift & 0xff
		dst[next[d]] = k
		next[d]++
	}
}

// b2i is 1 for true and 0 for false; inlined, it compiles to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Checksum is an order-insensitive fingerprint of a multiset of keys,
// used to verify that sorting permuted the input without losing or
// inventing items.  Sum and xor together detect any realistic corruption;
// Count catches duplication/loss that cancels in both.
type Checksum struct {
	Count int64
	Sum   uint64
	Xor   uint32
}

// Update folds the keys into the checksum.
func (c *Checksum) Update(keys []Key) {
	sum, xor := c.Sum, c.Xor
	for _, k := range keys {
		sum, xor = sum+uint64(k), xor^k
	}
	c.Count, c.Sum, c.Xor = c.Count+int64(len(keys)), sum, xor
}

// Add folds in o, another multiset's checksum: the counts and sums add,
// the xors xor, so a split's parts add up to the whole's checksum.
func (c *Checksum) Add(o Checksum) { c.Count, c.Sum, c.Xor = c.Count+o.Count, c.Sum+o.Sum, c.Xor^o.Xor }

// Equal reports whether two checksums describe the same multiset
// fingerprint.
func (c Checksum) Equal(o Checksum) bool { return c == o }

func (c Checksum) String() string {
	return fmt.Sprintf("Checksum{n=%d sum=%d xor=%08x}", c.Count, c.Sum, c.Xor)
}

// ChecksumOf computes the checksum of keys.
func ChecksumOf(keys []Key) Checksum {
	var c Checksum
	c.Update(keys)
	return c
}

// rng returns a deterministic source for a seed; all generators in this
// package are reproducible given the seed.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
