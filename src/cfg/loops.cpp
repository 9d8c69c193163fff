#include "cinderella/cfg/loops.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace cinderella::cfg {

bool NaturalLoop::contains(int block) const {
  return std::binary_search(blocks.begin(), blocks.end(), block);
}

std::vector<NaturalLoop> findLoops(const ControlFlowGraph& cfg,
                                   const DominatorTree& dom) {
  // Back edges as (header, latch), sorted so each header's are adjacent.
  std::vector<std::pair<int, int>> backEdges;
  for (const auto& e : cfg.edges()) {
    if (e.isEntry() || e.isExit()) continue;
    if (!dom.reachable(e.from)) continue;
    if (!dom.dominates(e.to, e.from)) continue;  // not a back edge
    backEdges.emplace_back(e.to, e.from);
  }
  std::sort(backEdges.begin(), backEdges.end());

  std::vector<NaturalLoop> loops;
  // Per block: in the loop being collected.
  std::vector<char> member(static_cast<std::size_t>(cfg.numBlocks()), 0);
  for (std::size_t i = 0; i < backEdges.size();) {
    NaturalLoop loop;
    loop.header = backEdges[i].first;
    // Natural loop: header + all blocks that reach a latch without
    // passing through the header (reverse flood fill from each latch).
    member[static_cast<std::size_t>(loop.header)] = 1;
    loop.blocks.push_back(loop.header);
    for (; i < backEdges.size() && backEdges[i].first == loop.header; ++i) {
      loop.latches.push_back(backEdges[i].second);
      std::vector<int> work{backEdges[i].second};
      while (!work.empty()) {
        const int b = work.back();
        work.pop_back();
        if (member[static_cast<std::size_t>(b)] != 0) continue;
        member[static_cast<std::size_t>(b)] = 1;
        loop.blocks.push_back(b);
        for (const int p : cfg.predecessors(b)) {
          if (member[static_cast<std::size_t>(p)] == 0) work.push_back(p);
        }
      }
    }
    std::sort(loop.blocks.begin(), loop.blocks.end());
    for (const int b : loop.blocks) member[static_cast<std::size_t>(b)] = 0;
    for (const int e : cfg.block(loop.header).predEdges) {
      const Edge& edge = cfg.edge(e);
      if (edge.isEntry() || !loop.contains(edge.from)) {
        loop.entryEdges.push_back(e);
      }
    }
    loops.push_back(std::move(loop));
  }
  return loops;
}

}  // namespace cinderella::cfg
