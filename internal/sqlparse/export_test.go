package sqlparse

// Test-only exports for the external differential test, which needs
// internal/workload's templates (workload imports this package, so an
// in-package test cannot).
var (
	CheckAgainstReference = checkAgainstReference
	RefRoutingHash        = refRoutingHash
	FuzzSeeds             = fuzzSeeds
	CollisionCorpus       = append(append([][2]string{}, collisionSame...), collisionDiff...)
)
