(* Parallel-runner injection for bulk index builds.

   The store layer sits below the engine, so it cannot call the domain
   pool directly; instead the engine (or any embedder) installs a runner
   once at startup and every index build fans its sort/encode tasks
   through it. With no runner installed the tasks run serially — the
   store stays dependency-free and correct in single-domain processes. *)

type runner = { domains : int; run : ntasks:int -> (int -> unit) -> unit }

let cell : runner option Atomic.t = Atomic.make None

let set_runner ~domains run = Atomic.set cell (Some { domains; run })

let domains () =
  match Atomic.get cell with Some r -> max 1 r.domains | None -> 1

let run ~ntasks f =
  if ntasks > 0 then
    match Atomic.get cell with
    | Some r when r.domains > 1 && ntasks > 1 -> r.run ~ntasks f
    | _ ->
        for i = 0 to ntasks - 1 do
          f i
        done
