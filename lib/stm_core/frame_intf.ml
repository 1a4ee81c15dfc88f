(** The interfaces between the transaction frame ({!Frame}) and the
    engines it runs. *)

(** What every engine supplies. *)
module type ENGINE = sig
  type ctx
  (** The engine's state for one top-level attempt. *)

  val stats : Stats.t

  val start : Stm_intf.mode -> owner:int -> Txrec.t option -> ctx
  (** The context of a fresh top-level attempt; [owner] is its lock-owner
      id and recorded transaction id. *)

  val commit : ctx -> unit
  (** Publish the attempt's effects or abort; the frame then closes the
      recorded transaction. *)

  val release : ctx -> unit
  (** Undo after any exception: release held locks, roll back. *)

  val forget : ctx -> unit
  (** Detach after {!Control.Crashed} without releasing anything. *)
end

(** What the frame gives back to the engine. *)
module type S = sig
  type ctx

  val current : unit -> ctx option
  (** The innermost running transaction of this instance on the current
      logical process. *)

  val nest : parent:ctx -> ctx -> (ctx -> 'a) -> 'a
  (** Run a nested level's body with the level current, then make [parent]
      current again, whether the body returns or raises. *)

  val in_transaction : unit -> bool

  val run_toplevel : Stm_intf.mode -> (ctx -> 'a) -> 'a
  (** Run a top-level transaction to commit under {!Retry_loop.run}, one
      fresh owner id per attempt. *)
end

type root = {
  owner : int;  (** lock-owner and recorded transaction id *)
  wset : Rwsets.Wset.t;  (** shared by every nesting level *)
  mutable rv : int;  (** upper bound of the validity interval *)
  rec_state : Txrec.t option;
}
(** The state of a tvar engine's top-level attempt that every nesting level
    shares. *)

type sets = {
  wset : Rwsets.Wset.t;
  rset : Rwsets.Rset.t;
  prot : Rwsets.Rset.t;  (** a second read set, for engines that keep two *)
}
(** The scratch sets of one top-level attempt of a tvar engine.  They are
    reused per domain; under {!Runtime.simulated}, where one domain
    multiplexes many logical processes, every attempt gets fresh ones. *)

(** What an engine over transactional variables supplies. *)
module type TVAR_ENGINE = sig
  type ctx

  val stats : Stats.t
  val start : Stm_intf.mode -> root -> sets -> ctx
  val root : ctx -> root

  val validate : ctx -> bool
  (** Full validation of every tracked read, run by a writing commit with
      its write locks held and by interval extension. *)

  val validate_new : ctx -> bool
  (** Validation of the reads tracked since the last successful one; sound
      only while the validity interval is unchanged (DESIGN.md 5g). *)

  val validate_read_only : ctx -> bool
  (** Validation run by a commit with an empty write set. *)

  val iter_reads : ctx -> (Rwsets.rentry -> unit) -> unit
  (** Every tracked read entry, for {!Sanitizer.on_commit}. *)

  val reads : ctx -> int
  (** Number of tracked reads, for {!Stats.record_rwset_sizes}. *)
end
