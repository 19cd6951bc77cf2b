package workload

import (
	"math"
	"testing"
)

// TestFbmRowsMatchesFbm holds the row-at-a-time noise to the per-point
// fbm bit for bit, on sizes that are and are not powers of two, cells
// that do and do not divide the size (size/6), and octave counts that
// take the cell below one texel.
func TestFbmRowsMatchesFbm(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 64, 100, 128, 256} {
		for _, div := range []float64{2, 4, 6, 8} {
			for octaves := 1; octaves <= 6; octaves++ {
				for _, seed := range []int64{1, 2, 7} {
					cell := float64(size) / div
					rows := 0
					fbmRows(size, cell, octaves, seed, func(y int, row []float64) {
						if y != rows || len(row) != size {
							t.Fatalf("size %d: row %d (len %d), want row %d", size, y, len(row), rows)
						}
						rows++
						for x, got := range row {
							want := fbm(float64(x), float64(y), cell, octaves, seed)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("size %d cell %v octaves %d seed %d (%d,%d): %v, fbm %v",
									size, cell, octaves, seed, x, y, got, want)
							}
						}
					})
					if rows != size {
						t.Fatalf("size %d: %d rows", size, rows)
					}
				}
			}
		}
	}
}
