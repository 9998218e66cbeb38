package stats

// ClassifyTailTerms exposes classifyTail, with its count of model-CDF
// terms, to the external test package's benchmark.
var ClassifyTailTerms = classifyTail
