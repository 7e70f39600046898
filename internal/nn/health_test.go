package nn

import (
	"errors"
	"math"
	"testing"

	"enld/internal/mat"
)

func TestCheckFinite(t *testing.T) {
	net := NewNetwork([]int{2, 4, 2}, mat.NewRNG(3))
	if err := net.CheckFinite(); err != nil {
		t.Fatalf("fresh network unhealthy: %v", err)
	}
	net.Biases[1][0] = math.Inf(1)
	err := net.CheckFinite()
	if err == nil {
		t.Fatal("Inf bias passed CheckFinite")
	}
	if !errors.Is(err, ErrUnhealthy) {
		t.Fatalf("CheckFinite error %v does not wrap ErrUnhealthy", err)
	}
	var nf *NonFiniteError
	if !errors.As(err, &nf) || nf.Layer != 1 || nf.Index != 0 || !math.IsInf(nf.Value, 1) {
		t.Fatalf("CheckFinite error %v does not locate the Inf bias", err)
	}
}
