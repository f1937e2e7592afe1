#include "sdrmpi/sim/process.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>

#include "sdrmpi/sim/asan_fiber.hpp"
#include "sdrmpi/sim/engine.hpp"
#include "sdrmpi/util/log.hpp"

#if defined(SDRMPI_REGISTER_SWITCH)
// sdrmpi_switch_context(from = %rdi, to = %rsi): pushes the callee-saved
// registers of the System V ABI plus MXCSR and the x87 control word (the
// per-thread FP state the ABI preserves across calls) onto the leaving
// stack, stores the stack pointer in *from, and pops the same frame off
// the stack *to names. Unlike swapcontext it makes no sigprocmask syscall:
// fibers never change the signal mask. It keeps no CET shadow stack either,
// which glibc leaves disabled unless a process opts in through
// GLIBC_TUNABLES.
//
// sdrmpi_fiber_entry is where a fresh fiber's first switch returns to
// (Process::make_fiber lays the frame out): it calls %r13(%r12), i.e.
// Process::entry(self). The CFI marks it as the outermost frame so
// unwinders and debuggers stop here.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl sdrmpi_switch_context
  .hidden sdrmpi_switch_context
  .type sdrmpi_switch_context, @function
sdrmpi_switch_context:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq (%rsi), %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size sdrmpi_switch_context, .-sdrmpi_switch_context

  .p2align 4
  .globl sdrmpi_fiber_entry
  .hidden sdrmpi_fiber_entry
  .type sdrmpi_fiber_entry, @function
sdrmpi_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size sdrmpi_fiber_entry, .-sdrmpi_fiber_entry
  .popsection
)");

extern "C" void sdrmpi_fiber_entry();
#else
extern "C" void sdrmpi_switch_context(
    sdrmpi::sim::FiberContext* from,
    const sdrmpi::sim::FiberContext* to) noexcept {
  swapcontext(from, to);
}
#endif

namespace sdrmpi::sim {

namespace {

std::size_t page_size() noexcept {
  static const auto ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

#if defined(SDRMPI_REGISTER_SWITCH)
// What sdrmpi_switch_context pops on the first switch into a fiber, in
// ascending address order. It sits at the top of the stack; after the
// `ret` into sdrmpi_fiber_entry the stack pointer is 16-byte aligned, as
// the ABI requires before a call, with 16 zero bytes above it.
struct alignas(16) InitialFrame {
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  std::uint16_t unused = 0;
  void* r15 = nullptr;
  void* r14 = nullptr;
  void (*r13)(Process*) = nullptr;  // called by the entry stub
  Process* r12 = nullptr;           // ...with this argument
  void* rbx = nullptr;
  void* rbp = nullptr;  // null: frame-pointer walks end here
  void (*ret)() = nullptr;
  std::uintptr_t top[2] = {};
};
static_assert(sizeof(InitialFrame) == 80);
#endif

}  // namespace

FiberStack::FiberStack(std::size_t usable) {
  const std::size_t ps = page_size();
  usable_ = (usable + ps - 1) / ps * ps;
  total_ = usable_ + ps;  // one guard page below the stack
  void* mem = ::mmap(nullptr, total_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::bad_alloc{};
  base_ = static_cast<std::byte*>(mem);
  // Stacks grow downward: the lowest page faults on overflow.
  ::mprotect(base_, ps, PROT_NONE);
}

FiberStack::~FiberStack() {
  if (base_ != nullptr) ::munmap(base_, total_);
}

FiberStack::FiberStack(FiberStack&& o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      total_(std::exchange(o.total_, 0)),
      usable_(std::exchange(o.usable_, 0)) {}

FiberStack& FiberStack::operator=(FiberStack&& o) noexcept {
  if (this != &o) {
    if (base_ != nullptr) ::munmap(base_, total_);
    base_ = std::exchange(o.base_, nullptr);
    total_ = std::exchange(o.total_, 0);
    usable_ = std::exchange(o.usable_, 0);
  }
  return *this;
}

std::byte* FiberStack::sp() const noexcept { return base_ + page_size(); }

const char* to_string(ProcState s) noexcept {
  switch (s) {
    case ProcState::Created: return "Created";
    case ProcState::Runnable: return "Runnable";
    case ProcState::Running: return "Running";
    case ProcState::Blocked: return "Blocked";
    case ProcState::Finished: return "Finished";
    case ProcState::Crashed: return "Crashed";
    case ProcState::Failed: return "Failed";
  }
  return "?";
}

Process::Process(Engine& engine, int pid, std::string name,
                 std::function<void()> body)
    : engine_(engine), pid_(pid), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() {
  // Normally destroyed by the engine right after termination; this covers
  // fibers torn down without ever terminating (engine destruction paths).
  // The handle can never be the running fiber here — a Process is only
  // destructed from engine/host context.
  tsan::destroy_fiber(tsan_fiber_);
  tsan_fiber_ = nullptr;
}

void Process::make_fiber(FiberStack stack) {
  stack_ = std::move(stack);
  // Re-entry after a restore to the stackless state replaces any previous
  // fiber handle (no-op on the first call).
  tsan::destroy_fiber(tsan_fiber_);
  tsan_fiber_ = tsan::create_fiber();
#if defined(SDRMPI_REGISTER_SWITCH)
  // The fiber starts with the FP control state of its creator, as
  // getcontext + makecontext gave it.
  auto* frame = ::new (stack_.sp() + stack_.size() - sizeof(InitialFrame))
      InitialFrame{};
  asm volatile("stmxcsr %0\n\tfnstcw %1"
               : "=m"(frame->mxcsr), "=m"(frame->x87_cw));
  frame->r13 = &Process::entry;
  frame->r12 = this;
  frame->ret = &sdrmpi_fiber_entry;
  ctx_ = frame;
#else
  getcontext(&ctx_);
  ctx_.uc_stack.ss_sp = stack_.sp();
  ctx_.uc_stack.ss_size = stack_.size();
  ctx_.uc_link = nullptr;  // termination is an explicit switch, never a return
  // makecontext only passes ints; split the pointer across two of them
  // (widened through u64 so the shift is defined on 32-bit pointers too).
  const auto self =
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(this));
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Process::ucontext_entry), 2,
              static_cast<unsigned int>(self >> 32),
              static_cast<unsigned int>(self & 0xffffffffu));
#endif
}

#if !defined(SDRMPI_REGISTER_SWITCH)
void Process::ucontext_entry(unsigned int hi, unsigned int lo) {
  entry(reinterpret_cast<Process*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo)));
}
#endif

void Process::entry(Process* self) {
  // First landing on this fiber: complete the switch and learn the
  // scheduler's stack bounds for the way back (ASan only; no-op otherwise).
  asan::finish_switch(nullptr, &self->engine_.asan_sched_bottom_,
                      &self->engine_.asan_sched_size_);
  self->run_body();
  // Final switch back to the scheduler; this context must never be resumed
  // again (the engine releases the stack once the process terminated).
  self->engine_.return_control_to_engine();
  std::abort();  // resumed a terminated fiber: engine bug
}

void Process::run_body() {
  try {
    if (crash_req_) throw CrashUnwind{};
    body_();
    state_ = ProcState::Finished;
  } catch (const CrashUnwind&) {
    state_ = ProcState::Crashed;
  } catch (...) {
    state_ = ProcState::Failed;
    error_ = std::current_exception();
  }
  SDR_LOG(Debug, "sim") << "process " << name_ << " exits as "
                        << to_string(state_) << " at t=" << clock_;
}

}  // namespace sdrmpi::sim
