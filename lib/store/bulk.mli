(** Parallel-runner injection for bulk index builds.

    The store cannot depend on the engine's domain pool, so the pool is
    injected: {!Engine.Pool.install_bulk_runner} calls {!set_runner}
    once, and index builds fan their per-order sort/encode tasks through
    {!run}. Without a runner everything runs serially. *)

(** [set_runner ~domains run] installs a parallel task runner.
    [run ~ntasks f] must apply [f 0 .. f (ntasks-1)], each exactly once,
    possibly concurrently, and return after all complete. *)
val set_runner : domains:int -> (ntasks:int -> (int -> unit) -> unit) -> unit

(** Domain count of the installed runner; [1] when serial. *)
val domains : unit -> int

(** [run ~ntasks f] — run [ntasks] independent tasks through the
    installed runner (serially when none is installed). *)
val run : ntasks:int -> (int -> unit) -> unit
