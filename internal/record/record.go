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

// sortCutoff is the length below which SortKeys sorts by insertion: four
// counting passes cost more than the few hundred comparisons they save.
const sortCutoff = 64

// SortKeys sorts keys in place, ascending: the one in-core sorter of the
// run formers.  From sortCutoff keys on it is an LSD radix sort on the four
// key bytes through scratch, which it overwrites and which must be at least
// as long as keys (SortKeys panics otherwise, whatever the length, so a
// short scratch never corrupts a load that happens to be small).  A pass
// whose byte is the same in every key would move nothing and is skipped, so
// a load of small or clustered keys pays for the bytes that vary.
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
	var count [KeySize][256]int
	for _, k := range keys {
		count[0][k&0xff]++
		count[1][k>>8&0xff]++
		count[2][k>>16&0xff]++
		count[3][k>>24]++
	}
	src, dst := keys, scratch[:n]
	for pass := range count {
		c, shift := &count[pass], uint(pass)*8
		if c[src[0]>>shift&0xff] == n {
			continue
		}
		sum := 0
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[c[d]] = k
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
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
