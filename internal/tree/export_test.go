package tree

import (
	"math/rand"

	"repro/internal/vec"
)

// OutOfBoxCloud is TestBallSearchProperties' open cloud: 600 points in the
// unit cube, up to 20 of them moved up to 0.3 outside it.
func OutOfBoxCloud() []vec.V3 {
	return propertyCloud(PBC{}, rand.New(rand.NewSource(21)))
}
