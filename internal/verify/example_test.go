package verify_test

import (
	"fmt"

	"spatialanon/internal/anonmodel"
	"spatialanon/internal/core"
	"spatialanon/internal/dataset"
	"spatialanon/internal/verify"
)

// Releases derived from one index are jointly collusion-safe: the
// auditor checks that correlating them never isolates fewer than k
// records.
func ExampleReleases() {
	rt, _ := core.NewRTreeAnonymizer(core.RTreeConfig{
		Schema: dataset.PatientsSchema(),
		BaseK:  5,
	})
	if err := rt.Load(dataset.GeneratePatients(500, 1)); err != nil {
		panic(err)
	}
	releases, err := rt.MultiGranular([]int{5, 25})
	if err != nil {
		panic(err)
	}
	err = verify.Releases(
		[][]anonmodel.Partition{releases[0].Partitions, releases[1].Partitions}, 5)
	fmt.Println("safe:", err == nil)
	// Output:
	// safe: true
}
