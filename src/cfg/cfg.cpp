#include "cinderella/cfg/cfg.hpp"

#include <algorithm>
#include <sstream>

#include "cinderella/support/error.hpp"
#include "cinderella/support/text.hpp"
#include "cinderella/vm/disasm.hpp"

namespace cinderella::cfg {

int ControlFlowGraph::blockOfInstr(int instrIndex) const {
  CIN_REQUIRE(instrIndex >= 0 &&
              instrIndex < static_cast<int>(instrToBlock_.size()));
  return instrToBlock_[static_cast<std::size_t>(instrIndex)];
}

std::vector<int> ControlFlowGraph::successors(int id) const {
  std::vector<int> out;
  for (const int e : block(id).succEdges) {
    if (!edge(e).isExit()) out.push_back(edge(e).to);
  }
  return out;
}

std::vector<int> ControlFlowGraph::predecessors(int id) const {
  std::vector<int> out;
  for (const int e : block(id).predEdges) {
    if (!edge(e).isEntry()) out.push_back(edge(e).from);
  }
  return out;
}

std::string ControlFlowGraph::str(const vm::Module& module) const {
  const vm::Function& fn = module.function(functionIndex_);
  std::ostringstream out;
  out << "cfg of " << fn.name << ": " << numBlocks() << " blocks, "
      << numEdges() << " edges\n";
  for (const auto& b : blocks_) {
    out << "  B" << b.id << " [" << b.firstInstr << ".." << b.lastInstr
        << "]";
    if (b.callee >= 0) out << " calls fn" << b.callee;
    if (b.isExit) out << " exit";
    out << "\n";
    for (int i = b.firstInstr; i <= b.lastInstr; ++i) {
      out << "    " << padLeft(std::to_string(i), 4) << ": "
          << vm::disasmInstr(fn.code[static_cast<std::size_t>(i)]) << "\n";
    }
  }
  for (const auto& e : edges_) {
    out << "  d" << e.id << ": ";
    if (e.isEntry()) {
      out << "entry";
    } else {
      out << "B" << e.from;
    }
    out << " -> ";
    if (e.isExit()) {
      out << "exit";
    } else {
      out << "B" << e.to;
    }
    if (e.isCall()) out << " (call fn" << e.callee << ")";
    out << "\n";
  }
  return out.str();
}

ControlFlowGraph buildCfg(const vm::Module& module, int functionIndex) {
  const vm::Function& fn = module.function(functionIndex);
  const int n = static_cast<int>(fn.code.size());
  CIN_REQUIRE(n > 0);

  // Leaders: instruction 0, every branch target, every instruction that
  // follows a control-flow instruction; sorted and deduplicated below.
  std::vector<int> leaders{0};
  for (int i = 0; i < n; ++i) {
    const vm::Instr& in = fn.code[static_cast<std::size_t>(i)];
    switch (in.op) {
      case vm::Opcode::Br:
      case vm::Opcode::Bt:
      case vm::Opcode::Bf: {
        const int target = static_cast<int>(in.imm);
        CIN_REQUIRE(target >= 0 && target <= n);
        if (target < n) leaders.push_back(target);
        if (i + 1 < n) leaders.push_back(i + 1);
        break;
      }
      case vm::Opcode::Call:
      case vm::Opcode::Ret:
      case vm::Opcode::Halt:
        if (i + 1 < n) leaders.push_back(i + 1);
        break;
      default:
        break;
    }
  }

  std::sort(leaders.begin(), leaders.end());
  leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());

  ControlFlowGraph cfg;
  cfg.functionIndex_ = functionIndex;
  cfg.instrToBlock_.assign(static_cast<std::size_t>(n), -1);

  for (std::size_t bi = 0; bi < leaders.size(); ++bi) {
    BasicBlock b;
    b.id = static_cast<int>(bi);
    b.firstInstr = leaders[bi];
    b.lastInstr = (bi + 1 < leaders.size()) ? leaders[bi + 1] - 1 : n - 1;
    for (int i = b.firstInstr; i <= b.lastInstr; ++i) {
      cfg.instrToBlock_[static_cast<std::size_t>(i)] = b.id;
      const int line = fn.code[static_cast<std::size_t>(i)].loc.line;
      if (line > 0) {
        // firstLine is the line the block *starts* on (first instruction
        // with a known location) — the anchor for @line references;
        // lastLine is the furthest line it covers.
        if (b.firstLine == 0) b.firstLine = line;
        if (line > b.lastLine) b.lastLine = line;
      }
    }
    cfg.blocks_.push_back(std::move(b));
  }

  auto addEdge = [&](int from, int to, int callee) {
    Edge e;
    e.id = static_cast<int>(cfg.edges_.size());
    e.from = from;
    e.to = to;
    e.callee = callee;
    if (from != kBoundary) {
      cfg.blocks_[static_cast<std::size_t>(from)].succEdges.push_back(e.id);
    }
    if (to != kBoundary) {
      cfg.blocks_[static_cast<std::size_t>(to)].predEdges.push_back(e.id);
    }
    cfg.edges_.push_back(e);
    return e.id;
  };

  // Entry edge first — it is the paper's d1 with the constraint d1 = 1.
  cfg.entryEdge_ = addEdge(kBoundary, 0, -1);

  for (auto& b : cfg.blocks_) {
    const vm::Instr& last = fn.code[static_cast<std::size_t>(b.lastInstr)];
    const int next = b.lastInstr + 1;
    switch (last.op) {
      case vm::Opcode::Br:
        addEdge(b.id, cfg.blockOfInstr(static_cast<int>(last.imm)), -1);
        break;
      case vm::Opcode::Bt:
      case vm::Opcode::Bf: {
        // Taken edge, then fall-through edge.
        addEdge(b.id, cfg.blockOfInstr(static_cast<int>(last.imm)), -1);
        CIN_REQUIRE(next < n);
        addEdge(b.id, cfg.blockOfInstr(next), -1);
        break;
      }
      case vm::Opcode::Call: {
        b.callee = static_cast<int>(last.imm);
        // Call edge to the continuation block (paper's f-edge).  A Ret
        // must follow eventually, so `next` is in range for well-formed
        // code; tolerate a trailing call by marking the block exit.
        if (next < n) {
          addEdge(b.id, cfg.blockOfInstr(next), b.callee);
        } else {
          b.isExit = true;
          cfg.exitEdges_.push_back(addEdge(b.id, kBoundary, b.callee));
        }
        break;
      }
      case vm::Opcode::Ret:
      case vm::Opcode::Halt:
        b.isExit = true;
        cfg.exitEdges_.push_back(addEdge(b.id, kBoundary, -1));
        break;
      default:
        // Fall-through into the next block.
        CIN_REQUIRE(next < n);
        addEdge(b.id, cfg.blockOfInstr(next), -1);
        break;
    }
  }

  return cfg;
}

}  // namespace cinderella::cfg
