package perf

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	if err := (Vector{}).Validate(); err == nil {
		t.Error("empty vector accepted")
	}
	if err := (Vector{1, 0}).Validate(); err == nil {
		t.Error("zero entry accepted")
	}
	if err := (Vector{1, -2}).Validate(); err == nil {
		t.Error("negative entry accepted")
	}
	if err := (Vector{1, 1, 4, 4}).Validate(); err != nil {
		t.Errorf("paper vector rejected: %v", err)
	}
}

func TestHomogeneous(t *testing.T) {
	if v := Homogeneous(4); !slices.Equal(v, Vector{1, 1, 1, 1}) {
		t.Fatalf("Homogeneous(4)=%v", v)
	}
}

func TestGCDLCM(t *testing.T) {
	cases := []struct{ a, b, gcd, lcm int64 }{
		{8, 12, 4, 24},
		{1, 1, 1, 1},
		{7, 13, 1, 91},
		{0, 5, 5, 0},
		{6, 0, 6, 0},
	}
	for _, c := range cases {
		if g := GCD(c.a, c.b); g != c.gcd {
			t.Errorf("GCD(%d,%d)=%d want %d", c.a, c.b, g, c.gcd)
		}
		if l := LCM(c.a, c.b); l != c.lcm {
			t.Errorf("LCM(%d,%d)=%d want %d", c.a, c.b, l, c.lcm)
		}
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// "with k=1, perf={8,5,3,1} we have lcm=120 and thus
	//  n = 120 + 3*120 + 5*120 + 8*120 = 2040"
	v := Vector{8, 5, 3, 1}
	if got := v.LCM(); got != 120 {
		t.Fatalf("LCM=%d want 120", got)
	}
	if got := v.InputSize(1); got != 2040 {
		t.Fatalf("InputSize(1)=%d want 2040", got)
	}
}

func TestPaperTable3Sizes(t *testing.T) {
	// perf={1,1,4,4}: lcm=4, quantum=40.  The paper picks 16777220 as
	// the valid size near 2^24, with shares 1677722 (slow) and
	// 6710888 (fast).
	v := Vector{1, 1, 4, 4}
	if got := v.NearestValidSize(16777220); got != 16777220 {
		t.Fatalf("NearestValidSize(16777220)=%d: it satisfies Equation 2", got)
	}
	if got := v.NearestValidSize(1 << 24); got != 16777220 {
		t.Fatalf("NearestValidSize(2^24)=%d want 16777220", got)
	}
	shares := v.Shares(16777220)
	want := []int64{1677722, 1677722, 6710888, 6710888}
	for i := range want {
		if shares[i] != want[i] {
			t.Fatalf("shares=%v want %v", shares, want)
		}
	}
}

func TestSharesSumProperty(t *testing.T) {
	f := func(raw []uint8, nRaw uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		v := make(Vector, len(raw))
		for i, r := range raw {
			v[i] = int(r%16) + 1
		}
		n := int64(nRaw % 1_000_000)
		shares := v.Shares(n)
		var sum int64
		for _, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
		}
		return sum == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSharesProportionalWhenValid(t *testing.T) {
	v := Vector{3, 2, 1}
	n := v.InputSize(5)
	shares := v.Shares(n)
	if shares[0] != 3*shares[2] || shares[1] != 2*shares[2] {
		t.Fatalf("shares not proportional: %v", shares)
	}
}

func TestSharesFallbackMonotone(t *testing.T) {
	// Non-Equation-2 size: faster nodes must never receive less.
	v := Vector{4, 4, 1, 1}
	shares := v.Shares(1003)
	if shares[0] < shares[2] || shares[1] < shares[3] {
		t.Fatalf("fallback shares not monotone: %v", shares)
	}
}

func TestSlowdowns(t *testing.T) {
	v := Vector{1, 1, 4, 4}
	got := v.Slowdowns()
	want := []float64{4, 4, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slowdowns=%v want %v", got, want)
		}
	}
	for _, s := range Homogeneous(3).Slowdowns() {
		if s != 1 {
			t.Fatal("homogeneous slowdowns must be 1")
		}
	}
}

func TestFromTimes(t *testing.T) {
	// Table 2 shape: fast nodes ~235 s, loaded nodes ~950 s at 2^24.
	v, err := FromTimes([]float64{235.7, 212.8, 909.3, 951.2})
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{4, 4, 1, 1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("FromTimes=%v want %v", v, want)
		}
	}
}

func TestFromTimesErrors(t *testing.T) {
	if _, err := FromTimes(nil); err == nil {
		t.Error("empty times accepted")
	}
	if _, err := FromTimes([]float64{1, 0}); err == nil {
		t.Error("zero time accepted")
	}
	if _, err := FromTimes([]float64{1, -3}); err == nil {
		t.Error("negative time accepted")
	}
}

func TestFromTimesHomogeneousNoise(t *testing.T) {
	// Near-equal times must give the all-ones vector despite noise.
	v, err := FromTimes([]float64{100, 104, 98, 101})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v, Homogeneous(4)) {
		t.Fatalf("noisy homogeneous calibration gave %v", v)
	}
}

func TestQuantumAndNearest(t *testing.T) {
	v := Vector{2, 3}
	// lcm=6, sum=5 -> quantum 30.
	if v.Quantum() != 30 {
		t.Fatalf("Quantum=%d", v.Quantum())
	}
	if v.NearestValidSize(1) != 30 {
		t.Fatal("NearestValidSize below quantum")
	}
	if v.NearestValidSize(31) != 60 {
		t.Fatal("NearestValidSize rounding")
	}
	if v.NearestValidSize(60) != 60 {
		t.Fatal("NearestValidSize exact")
	}
}

func TestMaxAndSum(t *testing.T) {
	v := Vector{8, 5, 3, 1}
	if v.Max() != 8 || v.Sum() != 17 {
		t.Fatalf("Max=%d Sum=%d", v.Max(), v.Sum())
	}
}

func TestString(t *testing.T) {
	if (Vector{1, 2}).String() != "[1 2]" {
		t.Fatalf("String=%q", Vector{1, 2}.String())
	}
}
