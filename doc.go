// Package coordbot reproduces "Coordinated Botnet Detection in Social
// Networks via Clustering Analysis" (Piercey, 2023): a three-step,
// content-agnostic pipeline that finds coordinated account groups in
// social-network comment streams.
//
//  1. Project the bipartite temporal multigraph of user→page comments into
//     a weighted common interaction graph over a delay window
//     (internal/projection, Algorithm 1).
//  2. Survey the CI graph for triangles with high minimum edge weight,
//     TriPoll-style (internal/tripoll).
//  3. Validate surviving triplets against the original bipartite graph
//     with hypergraph metrics (internal/hypergraph).
//
// internal/pipeline chains the steps as in-process worker pools;
// internal/ygmnet is the message-driven partitioned runtime (the paper's
// YGM, over TCP) the distributed form of each step runs on;
// internal/redditgen generates labeled synthetic workloads;
// internal/experiments regenerates every figure of the paper's evaluation.
// See README.md, DESIGN.md, and EXPERIMENTS.md.
package coordbot
