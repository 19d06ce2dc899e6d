package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestTableMatchesAnalyticProfile: W and GradW, which evaluate the
// tabulation, stay within 1e-9 W(0) and 1e-7 max|W'| of the analytic profile
// the table was built from, for every kernel of the registry.
func TestTableMatchesAnalyticProfile(t *testing.T) {
	for _, name := range Names() {
		kern, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		k := kern.(*base)
		var maxDW float64
		for i := 0; i <= 4000; i++ {
			maxDW = math.Max(maxDW, math.Abs(k.dw(float64(i)/2000)))
		}
		rng := rand.New(rand.NewSource(31))
		var errW, errDW float64
		for i := 0; i < 100000; i++ {
			q := SupportRadius * rng.Float64()
			errW = math.Max(errW, math.Abs(Profile{k}.W(q)-k.w(q)))
			errDW = math.Max(errDW, math.Abs(Profile{k}.DW(q)-k.dw(q)))
		}
		if errW > 1e-9*k.w(0) || errDW > 1e-7*maxDW {
			t.Errorf("%s: table off by %.3g in w (w(0) = %g) and %.3g in w' (max |w'| = %.3g)", name, errW, k.w(0), errDW, maxDW)
		}
	}
}

// TestKernelsAreBuiltOncePerName: constructing a kernel again returns the
// instance whose normalization and table already exist.
func TestKernelsAreBuiltOncePerName(t *testing.T) {
	if NewSinc(5) != NewSinc(5) || NewM4() != NewM4() {
		t.Error("a second construction rebuilt the kernel")
	}
	if NewSinc(5) == NewSinc(6) {
		t.Error("sinc-5 and sinc-6 share an instance")
	}
}
