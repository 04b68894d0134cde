package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPercentileBasics(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Percentile(vals, 50); got != 3 {
		t.Fatalf("p50 = %g", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(vals, 100); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(vals, 25); got != 2 {
		t.Fatalf("p25 = %g", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Fatal("empty percentile should be NaN")
	}
	// Nearest rank: the p75 of two values is the second, never a blend.
	if got := Percentile([]float64{0, 10}, 75); got != 10 {
		t.Fatalf("nearest-rank p75 = %g", got)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(vals, pa) <= Percentile(vals, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileBruteForce pins Quantile to its definition in exact
// integers: the element of least rank r with r/n >= p/100, that is
// r·10⁸ >= pm·n for p = pm millionths of a percent. Every series length
// from 1 to 3000 and 10⁶, at the percentiles the system reports and more;
// float rank arithmetic put the p999 of 1000 samples at their maximum.
func TestQuantileBruteForce(t *testing.T) {
	ps := []struct {
		p  float64
		pm int64
	}{
		{1, 1_000_000}, {10, 10_000_000}, {25, 25_000_000}, {50, 50_000_000}, {75, 75_000_000},
		{90, 90_000_000}, {95, 95_000_000}, {99, 99_000_000}, {99.9, 99_900_000}, {99.99, 99_990_000},
	}
	s := make([]float64, 1_000_000)
	for i := range s {
		s[i] = float64(i) // the value is the index
	}
	lengths := []int{1_000_000}
	for n := 1; n <= 3000; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, c := range ps {
			r := int64(1)
			for r*100_000_000 < c.pm*int64(n) {
				r++
			}
			if got := Quantile(s[:n], c.p); got != float64(r-1) {
				t.Fatalf("Quantile(n=%d, p=%v) is the element at index %v, want %d", n, c.p, got, r-1)
			}
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := Table{Title: "Fig X", Columns: []string{"app", "time (s)", "speedup"}}
	tb.AddRow("page-rank", 12.5, 2.69)
	tb.AddRow("als", 0.001234, "n/a")
	out := tb.Render()
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "page-rank") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "app,time (s),speedup\n") {
		t.Fatalf("csv header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "page-rank,12.5,2.69") {
		t.Fatalf("csv row wrong:\n%s", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12.5:    "12.5",
		2500:    "2500",
		0.00042: "4.20e-04",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%g) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN should render as -")
	}
}
