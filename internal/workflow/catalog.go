package workflow

import "time"

// The paper's two evaluation workflows (§V-A), plus Video Analyze in its
// series-parallel form.

// IntelligentAssistant returns the IA chain — object detection -> question
// answering -> text-to-speech — with the paper's default 3 s SLO.
func IntelligentAssistant() *Workflow {
	w, err := NewChain("ia", 3*time.Second, "od", "qa", "ts")
	if err != nil {
		panic(err)
	}
	return w
}

// VideoAnalyze returns the VA chain — frame extraction -> image
// classification -> image compression — with the paper's 1.5 s SLO.
func VideoAnalyze() *Workflow {
	w, err := NewChain("va", 1500*time.Millisecond, "fe", "icl", "ico")
	if err != nil {
		panic(err)
	}
	return w
}

// VideoAnalyzeSP returns the series-parallel form of Video Analyze: after
// frame extraction, image classification (for analysis) and image
// compression (for storage) process the frames concurrently and join. The
// SLO is 1.1 s — the chain's 1.5 s objective tightened in proportion to
// the two-stage critical path, so that sizing stays non-trivial (the
// 1000 mc floor misses it, Kmax meets it) exactly as the paper's
// workloads are calibrated.
func VideoAnalyzeSP() *Workflow {
	w, err := NewSeriesParallel("va-sp", 1100*time.Millisecond, [][]string{{"fe"}, {"icl", "ico"}})
	if err != nil {
		panic(err)
	}
	return w
}
