(* In-memory span recorder for the benchmark's traced runs.

   A span is one timed call into a layer: its name, start and end on the
   monotonic clock, the request it belongs to, and the span that caused
   it. Spans stay in memory while the benchmark runs; [self_seconds] folds
   them into per-layer self time (a span's duration minus the part its
   children cover) and [write] dumps them as JSON lines at the end.

   Some layers report their own duration without exposing start/end
   (the engine's evaluation time, Algorithm 4's time inside a plan
   miss); [reported] records those as children laid at the end of the
   enclosing span, which is where the program spends them. Others only
   pass named points on their way (the store's failpoint sites); [mark]
   stamps those, and [between] turns two stamps into a child span. *)

type span = {
  id : int;
  req : int;  (* request (operation) the span belongs to *)
  parent : int;  (* -1 for a request's root span *)
  name : string;
  t0 : float;  (* seconds, monotonic clock *)
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  on : bool;
  marks : (string, float) Hashtbl.t;  (* point name -> last time passed *)
}

let create ~on = { spans = []; next_id = 0; on; marks = Hashtbl.create 8 }
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let add t ~req ~parent name t0 t1 =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; req; parent; name; t0; t1 } :: t.spans

let mark t point = if t.on then Hashtbl.replace t.marks point (now ())
let clear_marks t = Hashtbl.reset t.marks

(* [between t ~req ~parent name a b] — a child span from the last pass
   of point [a] to that of [b]; nothing if either was not passed. *)
let between t ~req ~parent name a b =
  match (Hashtbl.find_opt t.marks a, Hashtbl.find_opt t.marks b) with
  | Some t0, Some t1 when t.on && t1 >= t0 -> add t ~req ~parent name t0 t1
  | _ -> ()

(* [span t ~req ~parent name f] runs [f id] inside a span named [name];
   [f] receives the span's id so its callee spans can name it as parent.
   With tracing off it only runs [f]. *)
let span t ~req ~parent name f =
  if not t.on then f (-1)
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let t0 = now () in
    let result = f id in
    t.spans <- { id; req; parent; name; t0; t1 = now () } :: t.spans;
    result
  end

(* [reported t ~req ~parent ~until name ms] — a child span of [ms]
   milliseconds ending at [until], for durations the program measures
   itself. *)
let reported t ~req ~parent ~until name ms =
  if t.on && ms > 0. then add t ~req ~parent name (until -. (ms /. 1000.)) until

(* Total self time of the spans named [name], in seconds: each span's
   duration minus the time its children cover, clamped at zero. *)
let self_seconds t name =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0. (Hashtbl.find_opt covered s.parent) in
        Hashtbl.replace covered s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        let kids = Option.value ~default:0. (Hashtbl.find_opt covered s.id) in
        acc +. Float.max 0. (s.t1 -. s.t0 -. kids))
    0. t.spans

let write t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"req\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
            s.id s.req s.parent s.name s.t0 s.t1)
        (List.rev t.spans))
