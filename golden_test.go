package parcube_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"parcube"
)

// goldenDataset builds a seeded dataset with non-integer values, so any
// change in the order an accumulator receives its contributions changes
// the snapshot bytes. Extents are not multiples of the default chunk side,
// and about one fact in eight lands on an occupied cell, so duplicate
// summing is covered too.
func goldenDataset(t *testing.T, seed int64, sizes []int, facts int) *parcube.Dataset {
	t.Helper()
	dims := make([]parcube.Dim, len(sizes))
	for i, s := range sizes {
		dims[i] = parcube.Dim{Name: fmt.Sprintf("d%d", i), Size: s}
	}
	schema, err := parcube.NewSchema(dims...)
	if err != nil {
		t.Fatal(err)
	}
	ds := parcube.NewDataset(schema)
	rng := rand.New(rand.NewSource(seed))
	coords := make([]int, len(sizes))
	for f := 0; f < facts; f++ {
		for i, s := range sizes {
			coords[i] = rng.Intn(s)
		}
		if err := ds.Add(rng.NormFloat64()*1000+rng.Float64()/3, coords...); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func snapshotHash(t *testing.T, c *parcube.Cube) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenSnapshotHashes pins the SHA-256 of WriteSnapshot for Build and
// BuildParallel on three seeded non-integer datasets under every
// aggregator. The hashes were recorded before the scan kernels were
// rewritten to walk chunks and rows; a kernel that folds any cell's
// contributions in a different order fails here.
func TestGoldenSnapshotHashes(t *testing.T) {
	datasets := []struct {
		seed  int64
		sizes []int
		facts int
	}{
		{seed: 11, sizes: []int{37, 20, 9, 5}, facts: 4000},
		{seed: 12, sizes: []int{50, 17, 33}, facts: 6000},
		{seed: 13, sizes: []int{7, 6, 5, 4, 3}, facts: 900},
	}
	aggs := []parcube.Aggregator{parcube.Sum, parcube.Count, parcube.Max, parcube.Min}
	want := map[string]string{
		"seed=11/count/build":    "121b05ecf81e2fd3b95af56dcb75ef2da9d4f04a4f834a013ada8f24bef88d27",
		"seed=11/count/parallel": "121b05ecf81e2fd3b95af56dcb75ef2da9d4f04a4f834a013ada8f24bef88d27",
		"seed=11/max/build":      "f5610a4a50f3dcaf290bbd832f06b7cb5609228bde14f521c1ba4c9824207048",
		"seed=11/max/parallel":   "f5610a4a50f3dcaf290bbd832f06b7cb5609228bde14f521c1ba4c9824207048",
		"seed=11/min/build":      "09bdb3d307a91a5da6897bd80a96738413810fa2e8c1b20c0676e2798d1184b2",
		"seed=11/min/parallel":   "09bdb3d307a91a5da6897bd80a96738413810fa2e8c1b20c0676e2798d1184b2",
		"seed=11/sum/build":      "cbb7fbbbe3dfb23a63ff80c83188aa3a299f7cfffd2cc45408286d47dd33db9d",
		"seed=11/sum/parallel":   "491b7558b1eea57581a397aa84e7ac739a471875d2ce3a0aab864e35d55bf03f",
		"seed=12/count/build":    "8d578165561e0163ec9447a2e95ca91e35a8fd4c03afa6460bd78cfc0043b850",
		"seed=12/count/parallel": "8d578165561e0163ec9447a2e95ca91e35a8fd4c03afa6460bd78cfc0043b850",
		"seed=12/max/build":      "5527d4617ddaeddbd2313ff1976c7680f63836a85e19a3ca372c09ff77654c0b",
		"seed=12/max/parallel":   "5527d4617ddaeddbd2313ff1976c7680f63836a85e19a3ca372c09ff77654c0b",
		"seed=12/min/build":      "9a04cf330ea6e60d2e5a5a39d9e7ac645a2de2fdf64ed077a79e0a3f2222f3f4",
		"seed=12/min/parallel":   "9a04cf330ea6e60d2e5a5a39d9e7ac645a2de2fdf64ed077a79e0a3f2222f3f4",
		"seed=12/sum/build":      "77827166d1839fab5e21a0571d28ad0764350ed2951479878b8655cbb121de95",
		"seed=12/sum/parallel":   "5a0f89dbb9f81fb620d4aaf43b1c8613db20e71d6ebeffb17d29edc53585647b",
		"seed=13/count/build":    "8d98ec7227f8238bff27b26803186e12074c7e2fb2df70c8be80c68b1b13ff82",
		"seed=13/count/parallel": "8d98ec7227f8238bff27b26803186e12074c7e2fb2df70c8be80c68b1b13ff82",
		"seed=13/max/build":      "4355c8122783161dfb20b39eb160eeb9c43ef2fe36b465d6332bb4b900438898",
		"seed=13/max/parallel":   "4355c8122783161dfb20b39eb160eeb9c43ef2fe36b465d6332bb4b900438898",
		"seed=13/min/build":      "e1436fcba31c7f2784443a4cdf20abbd8681f4e71993f3bbde75acac6cbb1ff9",
		"seed=13/min/parallel":   "e1436fcba31c7f2784443a4cdf20abbd8681f4e71993f3bbde75acac6cbb1ff9",
		"seed=13/sum/build":      "da19606033ef2f3330c9fda9c54033d6d0baa9f1570cf09b503bd01fbd00652d",
		"seed=13/sum/parallel":   "eee8f7f4c10e1e3486a2825e6c637c45bf0c4edcba4697349b40c4c2f0738fe7",
	}
	for _, d := range datasets {
		for _, a := range aggs {
			ds := goldenDataset(t, d.seed, d.sizes, d.facts)
			seqCube, _, err := parcube.Build(ds, parcube.WithAggregator(a))
			if err != nil {
				t.Fatal(err)
			}
			ds = goldenDataset(t, d.seed, d.sizes, d.facts)
			parCube, _, err := parcube.BuildParallel(ds, parcube.ClusterSpec{Processors: 8}, parcube.WithAggregator(a))
			if err != nil {
				t.Fatal(err)
			}
			for engine, c := range map[string]*parcube.Cube{"build": seqCube, "parallel": parCube} {
				key := fmt.Sprintf("seed=%d/%v/%s", d.seed, a, engine)
				got := snapshotHash(t, c)
				if got != want[key] {
					t.Errorf("%s: snapshot hash %s, want %s", key, got, want[key])
				}
			}
		}
	}
}
