(** Store-layer fault-injection seam.

    The store library cannot depend on the query layers where the
    governor's ticket machinery lives, so crash points in the
    durability code call {!hit} with a site name and a higher layer
    decides what (if anything) happens: the core library installs
    [Sparql.Governor.failpoint] as the handler at load time, making
    every store kill point reachable from the same deterministic chaos
    schedules the engine uses. With no handler installed, {!hit} is a
    single atomic load and a no-op call. *)

(** [set_handler f] installs [f] as the process-global failpoint
    handler (replacing the default no-op). *)
val set_handler : (string -> unit) -> unit

(** [hit site] invokes the installed handler; a chaos handler raises to
    simulate a crash at [site]. *)
val hit : string -> unit
