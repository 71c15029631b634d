package record

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	for _, k := range []Key{0, 1, 0xdeadbeef, 0xffffffff} {
		buf := EncodeKeys(nil, []Key{k})
		if got := DecodeKeys(nil, buf); len(buf) != KeySize || len(got) != 1 || got[0] != k {
			t.Fatalf("round trip %x -> %x -> %x", k, buf, got)
		}
	}
}

func TestEncodeDecodeKeys(t *testing.T) {
	keys := []Key{5, 0, 42, 0xffffffff, 7}
	buf := EncodeKeys(nil, keys)
	if len(buf) != KeySize*len(keys) {
		t.Fatalf("encoded length %d", len(buf))
	}
	got := DecodeKeys(nil, buf)
	if len(got) != len(keys) {
		t.Fatalf("decoded %d keys", len(got))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %d != %d", i, got[i], keys[i])
		}
	}
}

func TestEncodeAppendsToDst(t *testing.T) {
	buf := EncodeKeys([]byte{0xaa}, []Key{1})
	if len(buf) != 1+KeySize || buf[0] != 0xaa {
		t.Fatalf("EncodeKeys must append: %v", buf)
	}
}

func TestDecodePanicsOnRaggedBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DecodeKeys(nil, make([]byte, 5))
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(keys []Key) bool {
		got := DecodeKeys(nil, EncodeKeys(nil, keys))
		if len(got) != len(keys) {
			return false
		}
		for i := range keys {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// perKeyLE is the on-disk format by definition: each key's four bytes,
// least significant first, appended to dst.
func perKeyLE(dst []byte, keys []Key) []byte {
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint32(dst, k)
	}
	return dst
}

// TestCodecMatchesPerKeyEncoding pins EncodeKeys and DecodeKeys to the
// per-key little-endian definition at every length 0…65, appended onto a
// non-empty dst of 1…3 bytes (keys).
func TestCodecMatchesPerKeyEncoding(t *testing.T) {
	keys := Uniform.Generate(65, 9, 1)
	keys[0], keys[1], keys[2] = 0x04030201, 0xffffffff, 0
	for n := 0; n <= len(keys); n++ {
		for pre := 1; pre <= 3; pre++ {
			prefix := bytes.Repeat([]byte{0xaa}, pre)
			want := perKeyLE(slices.Clone(prefix), keys[:n])
			got := EncodeKeys(slices.Clone(prefix), keys[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("n=%d prefix=%d: EncodeKeys = %x, want %x", n, pre, got, want)
			}
			dec := DecodeKeys([]Key{9, 9, 9}[:pre], want[pre:])
			if !slices.Equal(dec[:pre], []Key{9, 9, 9}[:pre]) || !slices.Equal(dec[pre:], keys[:n]) {
				t.Fatalf("n=%d prefix=%d: DecodeKeys = %v", n, pre, dec)
			}
		}
	}
}

// TestBigEndianLoopMatchesCopy runs the per-key loop, which only a
// big-endian host reaches (through DiskOrder, under EncodeKeys and
// DecodeKeys), on every host: against the per-key definition, against
// the codec (a copy on a little-endian host), and in place, as DiskOrder
// runs it.
func TestBigEndianLoopMatchesCopy(t *testing.T) {
	keys := Uniform.Generate(65, 11, 1)
	for n := 0; n <= len(keys); n++ {
		enc := perKeyLE(nil, keys[:n])
		dec := make([]Key, n)
		decodeLoop(dec, enc)
		if !slices.Equal(dec, keys[:n]) || !slices.Equal(dec, DecodeKeys(nil, enc)) {
			t.Fatalf("n=%d: decodeLoop = %v, want %v", n, dec, keys[:n])
		}
		inPlace := make([]Key, n)
		copy(Bytes(inPlace), enc)
		decodeLoop(inPlace, Bytes(inPlace))
		if !slices.Equal(inPlace, keys[:n]) {
			t.Fatalf("n=%d: decodeLoop in place = %v, want %v", n, inPlace, keys[:n])
		}
	}
}

// TestDiskOrderRoundTrip: keys put in disk order are their encoding as
// bytes, and a second DiskOrder brings them back.
func TestDiskOrderRoundTrip(t *testing.T) {
	keys := Uniform.Generate(33, 4, 1)
	disk := slices.Clone(keys)
	DiskOrder(disk)
	if !bytes.Equal(Bytes(disk), perKeyLE(nil, keys)) {
		t.Fatalf("Bytes after DiskOrder = %x, want %x", Bytes(disk), perKeyLE(nil, keys))
	}
	DiskOrder(disk)
	if !slices.Equal(disk, keys) {
		t.Fatal("DiskOrder twice changed the keys")
	}
}

// sortCase runs SortKeys on a copy of keys and compares with slices.Sort.
func sortCase(t *testing.T, name string, keys []Key) {
	t.Helper()
	want := slices.Clone(keys)
	slices.Sort(want)
	got := slices.Clone(keys)
	scratch := make([]Key, len(keys))
	SortKeys(got, scratch)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): SortKeys differs from slices.Sort", name, len(keys))
	}
}

func TestSortKeysTable(t *testing.T) {
	const m = 4096
	// Around the cutoff and around m, every length mod 4, so the four-key
	// scatter's tail holds one, two and three keys.
	lengths := []int{0, 1, 2, sortCutoff - 1, sortCutoff, sortCutoff + 1, sortCutoff + 2, sortCutoff + 3,
		m - 1, m, m + 1, m + 2, m + 3}
	// Loads whose varying bits are masked: the pass plan starts at the
	// lowest varying bit, so most of these are not byte-aligned.
	masks := []struct {
		name string
		mask Key
	}{
		{"top-byte", 0xff000000}, // one pass
		{"low-byte", 0x000000ff},
		{"mid-bytes", 0x00ffff00},
		{"bits-12-27", 0x0ffff000}, // zipf-s2's rank<<12: two passes
		{"bits-3-9", 0x000003f8},   // across a byte boundary: one pass
		{"bit-0", 0x00000001},
		{"bit-31", 0x80000000},
		{"ends", 0xf000000f}, // bits 0-3 and 28-31, a constant middle
	}
	for _, n := range lengths {
		uniform := Uniform.Generate(n, int64(n)+1, 1)
		sortCase(t, "uniform", uniform)
		reverse := slices.Clone(uniform)
		slices.Sort(reverse)
		sortCase(t, "sorted", reverse)
		slices.Reverse(reverse)
		sortCase(t, "reverse", reverse)
		sortCase(t, "zipf-s2", ZipfS2.Generate(n, int64(n)+1, 1))
		sortCase(t, "heavy-dup", HeavyDup.Generate(n, int64(n)+1, 1))
		equal := make([]Key, n)
		for i := range equal {
			equal[i] = 0xdeadbeef
		}
		sortCase(t, "all-equal", equal)
		for _, c := range masks {
			masked := make([]Key, n)
			for i, k := range uniform {
				masked[i] = k&c.mask | 0x5a5a5a5a&^c.mask
			}
			sortCase(t, c.name, masked)
		}
	}
	for _, d := range Distributions() {
		sortCase(t, d.String(), d.Generate(m, 5, 4))
	}
}

// TestSortKeysRepeatThreshold: a load whose low digit has one value in
// exactly len/repeatShare keys sorts by the one-key scatter, one key more
// by the four-key scatter; both must sort.
func TestSortKeysRepeatThreshold(t *testing.T) {
	for _, n := range []int{sortCutoff, 1000, 4096 + 3} {
		at := n / repeatShare
		for _, hot := range []int{at, at + 1} {
			keys := Uniform.Generate(n, int64(n), 1)
			for i := range keys {
				if keys[i]&0xff == 0x5a {
					keys[i]++
				}
			}
			// Spread the hot digit over the load, so some four-key steps
			// hold several copies and some none.
			for j := 0; j < hot; j++ {
				i := j * n / hot
				keys[i] = keys[i]&^0xff | 0x5a
			}
			sortCase(t, fmt.Sprintf("hot=%d", hot), keys)
		}
	}
}

// TestSortKeysShortScratchPanics: a scratch shorter than the load is the
// documented panic at every length, also below the cutoff where the scratch
// would not have been touched.
func TestSortKeysShortScratchPanics(t *testing.T) {
	for _, n := range []int{1, sortCutoff - 1, sortCutoff, 1000} {
		keys := Uniform.Generate(n, 3, 1)
		before := slices.Clone(keys)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: SortKeys accepted a scratch of %d keys", n, n-1)
				}
			}()
			SortKeys(keys, make([]Key, n-1))
		}()
		if !slices.Equal(keys, before) {
			t.Fatalf("n=%d: the load was modified before the panic", n)
		}
	}
}

func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{}, Key(0))
	f.Add(EncodeKeys(nil, Uniform.Generate(sortCutoff+3, 1, 1)), ^Key(0))
	f.Add(EncodeKeys(nil, ZipfS2.Generate(300, 2, 1)), Key(0x000ff0f8))
	f.Fuzz(func(t *testing.T, raw []byte, mask Key) {
		keys := DecodeKeys(nil, raw[:len(raw)/KeySize*KeySize])
		// mask chooses which key bits vary, so the pass plan and the
		// pass-skip rule are fuzzed too.
		for i := range keys {
			keys[i] &= mask
		}
		sortCase(t, "fuzz", keys)
	})
}

func TestChecksumPermutationInvariant(t *testing.T) {
	f := func(keys []Key) bool {
		a := ChecksumOf(keys)
		shuffled := append([]Key(nil), keys...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := int(uint64(shuffled[i]) % uint64(i+1))
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		return a.Equal(ChecksumOf(shuffled))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumUpdateMatchesPerKey builds fingerprints across split
// Update calls of random lengths and holds each, bit for bit, to one
// folded key by key.
func TestChecksumUpdateMatchesPerKey(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		keys := Uniform.Generate(rnd.Intn(2000), int64(trial), 1)
		var want Checksum
		for _, k := range keys {
			want.Count++
			want.Sum += uint64(k)
			want.Xor ^= k
		}
		var got Checksum
		for rest := keys; len(rest) > 0; {
			n := rnd.Intn(len(rest) + 1)
			got.Update(rest[:n])
			rest = rest[n:]
		}
		if got != want {
			t.Fatalf("trial %d (%d keys): split Update gives %v, per key %v", trial, len(keys), got, want)
		}
	}
}

// TestChecksumAddMatchesUpdate holds Add over the parts of any split of
// a key slice, bit for bit, to Update over the whole.  Both start from a
// checksum whose sum sits less than 2³² below 2⁶⁴, so the sums wrap.
func TestChecksumAddMatchesUpdate(t *testing.T) {
	wrapped := 0
	f := func(count int64, below, xor uint32, keys []Key, cuts []uint16) bool {
		base := Checksum{Count: count, Sum: math.MaxUint64 - uint64(below), Xor: xor}
		want := base
		want.Update(keys)
		if want.Sum < base.Sum {
			wrapped++
		}
		got := base
		for rest := keys; ; cuts = cuts[1:] {
			n := len(rest)
			if len(cuts) > 0 {
				n = int(cuts[0]) % (len(rest) + 1)
			}
			got.Add(ChecksumOf(rest[:n]))
			if rest = rest[n:]; len(rest) == 0 {
				return got == want
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if wrapped == 0 {
		t.Fatal("no case wrapped the sum")
	}
}

func TestChecksumDetectsLoss(t *testing.T) {
	a := ChecksumOf([]Key{1, 2, 3})
	b := ChecksumOf([]Key{1, 2})
	if a.Equal(b) {
		t.Fatal("checksum missed dropped key")
	}
}

func TestChecksumDetectsMutation(t *testing.T) {
	a := ChecksumOf([]Key{1, 2, 3})
	b := ChecksumOf([]Key{1, 2, 4})
	if a.Equal(b) {
		t.Fatal("checksum missed mutated key")
	}
}

// TestChecksumCombineMatchesUnion: a checksum updated chunk by chunk,
// as output verification reads blocks, is the checksum of the union.
func TestChecksumCombineMatchesUnion(t *testing.T) {
	x := []Key{9, 9, 1}
	y := []Key{7, 0}
	var c Checksum
	c.Update(x)
	c.Update(y)
	if !c.Equal(ChecksumOf(append(append([]Key{}, x...), y...))) {
		t.Fatal("chunked Update != union")
	}
}

func TestDistributionsSuiteSize(t *testing.T) {
	ds := Distributions()
	if len(ds) != NumDistributions || NumDistributions != 12 {
		t.Fatalf("suite size %d", len(ds))
	}
	seen := map[string]bool{}
	for _, d := range ds {
		s := d.String()
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
}

func TestParseDistributionRoundTrip(t *testing.T) {
	for _, d := range Distributions() {
		got, err := ParseDistribution(d.String())
		if err != nil || got != d {
			t.Fatalf("parse %q: %v %v", d.String(), got, err)
		}
	}
	if _, err := ParseDistribution("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestGenerateLengthAndDeterminism(t *testing.T) {
	for _, d := range Distributions() {
		a := d.Generate(1000, 42, 4)
		b := d.Generate(1000, 42, 4)
		if len(a) != 1000 {
			t.Fatalf("%v: length %d", d, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: not deterministic at %d", d, i)
			}
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	a := Uniform.Generate(1000, 1, 4)
	b := Uniform.Generate(1000, 2, 4)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical uniform input")
	}
}

func TestSortedAndReverseShapes(t *testing.T) {
	s := Sorted.Generate(500, 0, 4)
	if !slices.IsSorted(s) {
		t.Fatal("Sorted not sorted")
	}
	r := Reverse.Generate(500, 0, 4)
	for i := 1; i < len(r); i++ {
		if r[i] > r[i-1] {
			t.Fatal("Reverse not non-increasing")
		}
	}
}

func TestNearlySortedIsMostlySorted(t *testing.T) {
	a := NearlySorted.Generate(10000, 3, 4)
	inversions := 0
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("nearly-sorted should have some disorder")
	}
	if inversions > len(a)/10 {
		t.Fatalf("nearly-sorted too disordered: %d inversions", inversions)
	}
}

func TestZipfHasManyDuplicates(t *testing.T) {
	a := Zipf.Generate(10000, 7, 4)
	distinct := map[Key]bool{}
	for _, k := range a {
		distinct[k] = true
	}
	if len(distinct) > len(a)/2 {
		t.Fatalf("zipf not duplicate-heavy: %d distinct of %d", len(distinct), len(a))
	}
}

func countDistinct(a []Key) int {
	distinct := map[Key]bool{}
	for _, k := range a {
		distinct[k] = true
	}
	return len(distinct)
}

func TestHeavyDupHasFewDistinctValues(t *testing.T) {
	a := HeavyDup.Generate(10000, 11, 4)
	if d := countDistinct(a); d > 5 {
		t.Fatalf("heavy-dup has %d distinct values, want <= 5", d)
	}
}

func TestZipfS2SkewExceedsZipf(t *testing.T) {
	mode := func(a []Key) int {
		counts := map[Key]int{}
		best := 0
		for _, k := range a {
			counts[k]++
			if counts[k] > best {
				best = counts[k]
			}
		}
		return best
	}
	const n = 20000
	s2 := mode(ZipfS2.Generate(n, 13, 4))
	s12 := mode(Zipf.Generate(n, 13, 4))
	if s2 <= s12 {
		t.Fatalf("zipf-s2 mode %d not heavier than zipf's %d", s2, s12)
	}
	if s2 < n/2 {
		t.Fatalf("zipf-s2 mode holds %d of %d keys, want a majority", s2, n)
	}
}

func TestStaircaseLeavesWideGaps(t *testing.T) {
	const parts = 4
	a := Staircase.Generate(10000, 17, parts)
	width := uint64(1<<32-1) / parts
	for i, k := range a {
		off := uint64(k) % width
		if off < width/2 || off > width/2+width/4096 {
			t.Fatalf("key %d (%d) off the plateau: offset %d", i, k, off)
		}
	}
}

func TestSamplerKillerHidesHalfTheMass(t *testing.T) {
	const parts = 8
	a := SamplerKiller.Generate(10000, 19, parts)
	width := uint64(1<<32-1) / parts
	magnets, hidden := 0, 0
	for _, k := range a {
		if uint64(k)%width == 0 {
			magnets++
		} else {
			hidden++
		}
	}
	if magnets < len(a)/3 || hidden < len(a)/3 {
		t.Fatalf("magnet/hidden split %d/%d not near half-and-half", magnets, hidden)
	}
	// The hidden mass sits in a hair-thin spike above each magnet.
	for _, k := range a {
		if off := uint64(k) % width; off > width/1024+1 {
			t.Fatalf("key %d outside magnet+spike band (offset %d)", k, off)
		}
	}
}

func TestBucketRangesDisjoint(t *testing.T) {
	const n, parts = 8000, 4
	a := Bucket.Generate(n, 5, parts)
	// Each quarter of the input must stay in its own value range.
	for q := 0; q < parts; q++ {
		lo, hi := ^Key(0), Key(0)
		for _, k := range a[q*n/parts : (q+1)*n/parts] {
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		width := uint64(^uint32(0)) / parts
		if uint64(lo) < uint64(q)*width || uint64(hi) > uint64(q+1)*width {
			t.Fatalf("bucket %d leaked outside its range [%d,%d]", q, lo, hi)
		}
	}
}

func TestStaggeredBlocksAreDistant(t *testing.T) {
	const n, parts = 8000, 8
	a := Staggered.Generate(n, 5, parts)
	blockLen := n / parts
	medians := make([]Key, parts)
	for b := 0; b < parts; b++ {
		blk := append([]Key{}, a[b*blockLen:(b+1)*blockLen]...)
		sort.Slice(blk, func(i, j int) bool { return blk[i] < blk[j] })
		medians[b] = blk[len(blk)/2]
	}
	// Adjacent blocks should not be in adjacent value ranges everywhere.
	adjacentClose := 0
	width := uint64(^uint32(0)) / parts
	for b := 1; b < parts; b++ {
		diff := int64(medians[b]) - int64(medians[b-1])
		if diff < 0 {
			diff = -diff
		}
		if uint64(diff) <= width {
			adjacentClose++
		}
	}
	if adjacentClose == parts-1 {
		t.Fatal("staggered blocks look contiguous, not staggered")
	}
}

func TestGenerateZeroAndPanics(t *testing.T) {
	if got := Uniform.Generate(0, 1, 4); len(got) != 0 {
		t.Fatal("zero-length generation")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative n")
		}
	}()
	Uniform.Generate(-1, 1, 4)
}

// BenchmarkSortKeys times the in-core sorter alone on loads of the M the
// bench workloads use: 4096 (wide64-tree), 16384 (skew4-hist) and 65536
// (het4-mem, whose former does not call it; BenchmarkRunFormation's regime
// shape does).  zipf-s2 repeats one digit in most keys, heavy-dup draws
// five values, and sorted keys arrive in order.
func BenchmarkSortKeys(b *testing.B) {
	for _, d := range []Distribution{Uniform, ZipfS2, HeavyDup, Sorted} {
		for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
			in := d.Generate(n, 1, 1)
			keys, scratch := make([]Key, n), make([]Key, n)
			b.Run(fmt.Sprintf("%v/n=%d", d, n), func(b *testing.B) {
				b.SetBytes(int64(n) * KeySize)
				for i := 0; i < b.N; i++ {
					copy(keys, in)
					SortKeys(keys, scratch)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/key")
			})
		}
	}
}
