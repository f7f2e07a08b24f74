package sqlparse

// Test-only exports for the external differential test, which needs
// internal/workload's templates (workload imports this package, so an
// in-package test cannot).
var (
	CheckAgainstReference = checkAgainstReference
	FuzzSeeds             = fuzzSeeds
	CollisionCorpus       = append(append([][2]string{}, collisionSame...), collisionDiff...)
)
