package dedup

// Helpers shared with the external test package (dedup_test), which exists
// because tests of the composed pipeline import internal/blocking and
// blocking imports this package.
var (
	ToyDataset             = toyDataset
	AllPairs               = allPairs
	RequireCurvesIdentical = requireCurvesIdentical
)
