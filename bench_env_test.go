package coordbot_test

import (
	"runtime"

	"coordbot/internal/graph"
)

// benchRuntime stamps the runtime knobs that make recorded perf numbers
// comparable across boxes into a report's corpus block: GOMAXPROCS and the
// CI store's shard count (0 meaning graph.DefaultShards).
func benchRuntime(corpus map[string]any, shards int) map[string]any {
	if shards <= 0 {
		shards = graph.DefaultShards
	}
	corpus["gomaxprocs"] = runtime.GOMAXPROCS(0)
	corpus["shards"] = shards
	return corpus
}
