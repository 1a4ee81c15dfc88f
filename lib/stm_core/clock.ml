(* The global version clock (see clock.mli and DESIGN.md §5f).  The cell is
   cache-line padded: every writer commit RMWs it, so sharing a line with
   any other hot object would ping-pong that object too.

   The trace events are hoisted to module level so that a traced run does
   not allocate a constructor application per clock access, and an
   untraced run pays exactly one load-and-branch. *)

let clock = Padding.atomic 0

let read_event = Runtime.Read Runtime.clock_pe
let write_event = Runtime.Write Runtime.clock_pe

let now () =
  if !Runtime.tracing then Runtime.trace_access read_event;
  Atomic.get clock

let tick () =
  if !Runtime.tracing then Runtime.trace_access write_event;
  Atomic.fetch_and_add clock 1 + 1

let rec cas_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then cas_max cell v

(* Post-recovery fence: WAL replay decides "already covered by the last
   checkpoint" with a version comparison, so versions minted after a
   restart must stay strictly above every replayed commit version —
   otherwise a post-recovery commit's record would look older than the
   state it follows and be skipped (or mis-ordered) by the *next*
   recovery. *)
let catch_up v = cas_max clock v
