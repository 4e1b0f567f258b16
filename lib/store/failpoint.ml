(* The store layer sits below the query layers, so it cannot see
   {!Sparql.Governor} directly — yet the durability code wants the same
   deterministic fault-injection machinery the engine's chaos suite
   uses. This module is the seam: a process-global handler, installed
   once by a higher layer (the core library routes it to
   [Sparql.Governor.failpoint]), called by store code at named kill
   points. The default handler is a no-op, so the store library stays
   usable — and fault-free — on its own. *)

let noop (_ : string) = ()

let handler : (string -> unit) Atomic.t = Atomic.make noop

let set_handler f = Atomic.set handler f

let hit site = (Atomic.get handler) site
