package ekl

// Hooks for the external tests in run_diff_test.go, which sit in package
// ekl_test so they can import the application packages that import ekl.
var (
	RefRun      = refRun
	FuzzSeeds   = fuzzSeeds
	InferShapes = (*Kernel).inferShapes
)
