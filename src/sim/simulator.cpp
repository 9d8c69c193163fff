#include "cinderella/sim/simulator.hpp"

#include <bit>
#include <cmath>

#include "cinderella/support/error.hpp"

namespace cinderella::sim {

using vm::Instr;
using vm::Opcode;

std::uint64_t encodeInt(std::int64_t value) {
  return static_cast<std::uint64_t>(value);
}
std::uint64_t encodeFloat(double value) {
  return std::bit_cast<std::uint64_t>(value);
}
std::int64_t decodeInt(std::uint64_t raw) {
  return static_cast<std::int64_t>(raw);
}
double decodeFloat(std::uint64_t raw) { return std::bit_cast<double>(raw); }

Simulator::Simulator(const vm::Module& module, march::CostModel model)
    : module_(module), model_(std::move(model)), icache_(model_.params()) {
  CIN_REQUIRE(module.isLaidOut());
  cfgs_.reserve(static_cast<std::size_t>(module.numFunctions()));
  pipeCost_.reserve(static_cast<std::size_t>(module.numFunctions()));
  for (int f = 0; f < module.numFunctions(); ++f) {
    cfgs_.push_back(cfg::buildCfg(module, f));
    const auto& cfg = cfgs_.back();
    std::vector<std::int64_t> costs;
    costs.reserve(static_cast<std::size_t>(cfg.numBlocks()));
    for (const auto& b : cfg.blocks()) {
      costs.push_back(
          model_.pipelineCycles(module.function(f), b.firstInstr, b.lastInstr));
    }
    pipeCost_.push_back(std::move(costs));
  }
}

namespace {

struct Frame {
  int function = -1;
  int pc = 0;                 // next instruction index
  int returnReg = -1;         // caller register receiving the result
  std::vector<std::uint64_t> regs;
  std::int64_t fp = 0;        // frame base (word address)
};

[[noreturn]] void fault(const std::string& message) {
  throw SimulationError("simulation fault: " + message);
}

}  // namespace

SimResult Simulator::run(int function, std::span<const std::int64_t> args,
                         const SimOptions& options) {
  std::vector<std::uint64_t> raw;
  raw.reserve(args.size());
  for (const std::int64_t a : args) raw.push_back(encodeInt(a));
  return runRaw(function, raw, options);
}

SimResult Simulator::runRaw(int function, std::span<const std::uint64_t> args,
                            const SimOptions& options) {
  CIN_REQUIRE(function >= 0 && function < module_.numFunctions());

  SimResult result;
  result.blockCounts.resize(cfgs_.size());
  for (std::size_t f = 0; f < cfgs_.size(); ++f) {
    result.blockCounts[f].assign(
        static_cast<std::size_t>(cfgs_[f].numBlocks()), 0);
  }

  // Data memory: globals then stack.
  std::vector<std::uint64_t> memory = module_.globalInit();
  for (const auto& patch : options.patches) {
    const vm::GlobalVar* g = module_.findGlobal(patch.name);
    if (g == nullptr) fault("patch of unknown global '" + patch.name + "'");
    if (static_cast<int>(patch.words.size()) > g->size) {
      fault("patch for '" + patch.name + "' exceeds its size");
    }
    for (std::size_t i = 0; i < patch.words.size(); ++i) {
      memory[static_cast<std::size_t>(g->offset) + i] = patch.words[i];
    }
  }
  const std::int64_t stackBase = static_cast<std::int64_t>(memory.size());
  memory.resize(memory.size() + static_cast<std::size_t>(options.stackWords),
                0);
  std::int64_t sp = stackBase;

  if (options.coldCache) icache_.flush();
  icache_.resetStats();

  auto loadMem = [&](std::int64_t addr) -> std::uint64_t {
    if (addr < 0 || addr >= static_cast<std::int64_t>(memory.size())) {
      fault("load out of bounds at address " + std::to_string(addr));
    }
    return memory[static_cast<std::size_t>(addr)];
  };
  auto storeMem = [&](std::int64_t addr, std::uint64_t value) {
    if (addr < 0 || addr >= static_cast<std::int64_t>(memory.size())) {
      fault("store out of bounds at address " + std::to_string(addr));
    }
    memory[static_cast<std::size_t>(addr)] = value;
  };

  std::vector<Frame> stack;
  auto pushFrame = [&](int fnIndex, std::span<const std::uint64_t> callArgs,
                       int returnReg) {
    const vm::Function& fn = module_.function(fnIndex);
    if (static_cast<int>(callArgs.size()) != fn.numParams) {
      fault("call to " + fn.name + " with " +
            std::to_string(callArgs.size()) + " args, expected " +
            std::to_string(fn.numParams));
    }
    Frame frame;
    frame.function = fnIndex;
    frame.returnReg = returnReg;
    frame.regs.assign(static_cast<std::size_t>(fn.numRegs), 0);
    for (std::size_t i = 0; i < callArgs.size(); ++i) frame.regs[i] = callArgs[i];
    frame.fp = sp;
    sp += fn.frameWords;
    if (sp > static_cast<std::int64_t>(memory.size())) fault("stack overflow");
    stack.push_back(std::move(frame));
  };

  pushFrame(function, args, -1);

  // Block-entry bookkeeping: charge pipeline cost and bump the counter
  // when the pc sits on a block leader.
  auto enterBlock = [&](int fnIndex, int pc) {
    const auto& cfg = cfgs_[static_cast<std::size_t>(fnIndex)];
    const int block = cfg.blockOfInstr(pc);
    result.blockCounts[static_cast<std::size_t>(fnIndex)]
                      [static_cast<std::size_t>(block)] += 1;
    result.cycles += pipeCost_[static_cast<std::size_t>(fnIndex)]
                              [static_cast<std::size_t>(block)];
  };
  enterBlock(function, 0);

  const std::int64_t penalty = model_.params().branchTakenPenalty;
  const std::int64_t missPenalty = model_.params().missPenalty;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    const vm::Function& fn = module_.function(frame.function);
    if (frame.pc < 0 || frame.pc >= static_cast<int>(fn.code.size())) {
      fault("pc out of range in " + fn.name);
    }
    const Instr& in = fn.code[static_cast<std::size_t>(frame.pc)];

    if (++result.instructions > options.maxInstructions) {
      fault("instruction limit exceeded");
    }
    if (!icache_.access(fn.instrAddr(frame.pc))) {
      result.cycles += missPenalty;
    }

    auto& regs = frame.regs;
    auto reg = [&](int r) -> std::uint64_t& {
      if (r < 0 || r >= static_cast<int>(regs.size())) {
        fault("register out of range in " + fn.name);
      }
      return regs[static_cast<std::size_t>(r)];
    };
    auto ival = [&](int r) { return decodeInt(reg(r)); };
    auto fval = [&](int r) { return decodeFloat(reg(r)); };

    int nextPc = frame.pc + 1;
    bool transferred = false;  // taken branch / call / ret

    switch (in.op) {
      case Opcode::MovI: reg(in.rd) = encodeInt(in.imm); break;
      case Opcode::MovF: reg(in.rd) = encodeFloat(in.fimm); break;
      case Opcode::Mov: reg(in.rd) = reg(in.rs1); break;
      // Integer add, subtract and multiply wrap in two's complement, as
      // the target's integer unit does: computed on the raw unsigned
      // words, where overflow is defined (signed overflow is not).
      case Opcode::Add: reg(in.rd) = reg(in.rs1) + reg(in.rs2); break;
      case Opcode::Sub: reg(in.rd) = reg(in.rs1) - reg(in.rs2); break;
      case Opcode::Mul: reg(in.rd) = reg(in.rs1) * reg(in.rs2); break;
      case Opcode::Div: {
        const std::int64_t d = ival(in.rs2);
        if (d == 0) fault("integer division by zero in " + fn.name);
        reg(in.rd) = encodeInt(ival(in.rs1) / d);
        break;
      }
      case Opcode::Rem: {
        const std::int64_t d = ival(in.rs2);
        if (d == 0) fault("integer remainder by zero in " + fn.name);
        reg(in.rd) = encodeInt(ival(in.rs1) % d);
        break;
      }
      case Opcode::And: reg(in.rd) = reg(in.rs1) & reg(in.rs2); break;
      case Opcode::Or: reg(in.rd) = reg(in.rs1) | reg(in.rs2); break;
      case Opcode::Xor: reg(in.rd) = reg(in.rs1) ^ reg(in.rs2); break;
      case Opcode::Shl:
        reg(in.rd) = encodeInt(ival(in.rs1)
                               << (ival(in.rs2) & 63));
        break;
      case Opcode::Shr:
        reg(in.rd) = encodeInt(ival(in.rs1) >> (ival(in.rs2) & 63));
        break;
      case Opcode::Neg: reg(in.rd) = 0 - reg(in.rs1); break;
      case Opcode::Not: reg(in.rd) = encodeInt(~ival(in.rs1)); break;
      case Opcode::AddI: reg(in.rd) = reg(in.rs1) + encodeInt(in.imm); break;
      case Opcode::MulI: reg(in.rd) = reg(in.rs1) * encodeInt(in.imm); break;
      case Opcode::FAdd: reg(in.rd) = encodeFloat(fval(in.rs1) + fval(in.rs2)); break;
      case Opcode::FSub: reg(in.rd) = encodeFloat(fval(in.rs1) - fval(in.rs2)); break;
      case Opcode::FMul: reg(in.rd) = encodeFloat(fval(in.rs1) * fval(in.rs2)); break;
      case Opcode::FDiv: reg(in.rd) = encodeFloat(fval(in.rs1) / fval(in.rs2)); break;
      case Opcode::FNeg: reg(in.rd) = encodeFloat(-fval(in.rs1)); break;
      case Opcode::CvtIF:
        reg(in.rd) = encodeFloat(static_cast<double>(ival(in.rs1)));
        break;
      case Opcode::CvtFI:
        reg(in.rd) = encodeInt(static_cast<std::int64_t>(fval(in.rs1)));
        break;
      case Opcode::CmpEq: reg(in.rd) = encodeInt(ival(in.rs1) == ival(in.rs2)); break;
      case Opcode::CmpNe: reg(in.rd) = encodeInt(ival(in.rs1) != ival(in.rs2)); break;
      case Opcode::CmpLt: reg(in.rd) = encodeInt(ival(in.rs1) < ival(in.rs2)); break;
      case Opcode::CmpLe: reg(in.rd) = encodeInt(ival(in.rs1) <= ival(in.rs2)); break;
      case Opcode::CmpGt: reg(in.rd) = encodeInt(ival(in.rs1) > ival(in.rs2)); break;
      case Opcode::CmpGe: reg(in.rd) = encodeInt(ival(in.rs1) >= ival(in.rs2)); break;
      case Opcode::FCmpEq: reg(in.rd) = encodeInt(fval(in.rs1) == fval(in.rs2)); break;
      case Opcode::FCmpNe: reg(in.rd) = encodeInt(fval(in.rs1) != fval(in.rs2)); break;
      case Opcode::FCmpLt: reg(in.rd) = encodeInt(fval(in.rs1) < fval(in.rs2)); break;
      case Opcode::FCmpLe: reg(in.rd) = encodeInt(fval(in.rs1) <= fval(in.rs2)); break;
      case Opcode::FCmpGt: reg(in.rd) = encodeInt(fval(in.rs1) > fval(in.rs2)); break;
      case Opcode::FCmpGe: reg(in.rd) = encodeInt(fval(in.rs1) >= fval(in.rs2)); break;
      case Opcode::Ld: {
        const std::int64_t base = (in.rs1 < 0) ? 0 : ival(in.rs1);
        reg(in.rd) = loadMem(base + in.imm);
        break;
      }
      case Opcode::St: {
        const std::int64_t base = (in.rs1 < 0) ? 0 : ival(in.rs1);
        storeMem(base + in.imm, reg(in.rs2));
        break;
      }
      case Opcode::FrameAddr:
        reg(in.rd) = encodeInt(frame.fp + in.imm);
        break;
      case Opcode::Br:
        nextPc = static_cast<int>(in.imm);
        transferred = true;
        break;
      case Opcode::Bt:
      case Opcode::Bf: {
        const bool truthy = ival(in.rs1) != 0;
        const bool take = (in.op == Opcode::Bt) ? truthy : !truthy;
        if (take) {
          nextPc = static_cast<int>(in.imm);
          transferred = true;
        }
        break;
      }
      case Opcode::Call: {
        const int callee = static_cast<int>(in.imm);
        std::vector<std::uint64_t> callArgs;
        callArgs.reserve(in.args.size());
        for (const int r : in.args) callArgs.push_back(reg(r));
        frame.pc = nextPc;  // resume after the call
        result.cycles += penalty;
        pushFrame(callee, callArgs, in.rd);
        enterBlock(callee, 0);
        continue;  // frame reference invalidated
      }
      case Opcode::Ret: {
        const bool hasValue = in.rs1 >= 0;
        const std::uint64_t value = hasValue ? reg(in.rs1) : 0;
        const vm::Function& retFn = fn;
        sp -= retFn.frameWords;
        const int returnReg = frame.returnReg;
        stack.pop_back();
        result.cycles += penalty;
        if (stack.empty()) {
          result.returnValue = value;
          result.returnedValue = hasValue;
          result.cacheHits = icache_.hits();
          result.cacheMisses = icache_.misses();
          return result;
        }
        Frame& caller = stack.back();
        if (returnReg >= 0 && hasValue) {
          if (returnReg >= static_cast<int>(caller.regs.size())) {
            fault("return register out of range");
          }
          caller.regs[static_cast<std::size_t>(returnReg)] = value;
        }
        enterBlock(caller.function, caller.pc);
        continue;
      }
      case Opcode::Halt:
        result.cacheHits = icache_.hits();
        result.cacheMisses = icache_.misses();
        return result;
    }

    if (transferred) result.cycles += penalty;
    const bool blockBoundary =
        transferred ||
        cfgs_[static_cast<std::size_t>(frame.function)].blockOfInstr(nextPc) !=
            cfgs_[static_cast<std::size_t>(frame.function)].blockOfInstr(
                frame.pc);
    frame.pc = nextPc;
    if (blockBoundary) enterBlock(frame.function, nextPc);
  }

  fault("control fell off the call stack");
}

}  // namespace cinderella::sim
