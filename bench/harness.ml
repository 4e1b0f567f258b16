(* Shared infrastructure for the benchmark harness: run configuration,
   repeated timed execution with best-of-N aggregation, and plain-text
   table rendering that mirrors the paper's tables and figure series. *)

type config = {
  quick : bool;  (** reduced scale for smoke runs *)
  repetitions : int;  (** timings are best-of-N *)
  row_budget : int;  (** the paper's memory-limit analogue *)
  timeout_ms : float;  (** the paper's query-timeout analogue *)
  domains : int;  (** domains per query evaluation (1 = serial) *)
  lubm : Workload.Lubm.config;
  dbpedia : Workload.Dbpedia_gen.config;
  scaling_universities : int list;  (** Figure 12's dataset ladder *)
}

let default_config =
  {
    quick = false;
    repetitions = 2;
    row_budget = 10_000_000;
    timeout_ms = 20_000.;
    domains = 1;
    lubm = Workload.Lubm.default;
    dbpedia = Workload.Dbpedia_gen.default;
    scaling_universities = [ 3; 6; 9; 13 ];
  }

let quick_config =
  {
    quick = true;
    repetitions = 1;
    row_budget = 2_000_000;
    timeout_ms = 5_000.;
    domains = 1;
    lubm = { Workload.Lubm.default with universities = 2; density = 0.5 };
    dbpedia = Workload.Dbpedia_gen.tiny;
    scaling_universities = [ 1; 2 ];
  }

let section title =
  let line = String.make 78 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" line title line

let subsection title = Printf.printf "\n-- %s --\n%!" title

(* A cell of a timing table: milliseconds, or a limit marker (the paper
   renders OOM as an absent bar and timeouts as capped bars). *)
type cell = Time of float | Oom | Timed_out

let cell_to_string = function
  | Time ms -> Printf.sprintf "%.1f" ms
  | Oom -> "OOM"
  | Timed_out -> "timeout"

(* Best-of-N execution of one (mode, engine) configuration. Returns the
   cell plus the last report (for result counts and join spaces). *)
let run_mode config ~stats store entry ~mode ~engine =
  let best = ref None in
  let last_report = ref None in
  for _ = 1 to config.repetitions do
    let report =
      Sparql_uo.Executor.run ~mode ~engine ~domains:config.domains
        ~row_budget:config.row_budget ~timeout_ms:config.timeout_ms ~stats
        store entry.Workload.Queries.text
    in
    last_report := Some report;
    let cell =
      match report.Sparql_uo.Executor.failure with
      | Some Sparql_uo.Executor.Out_of_budget -> Oom
      | Some Sparql_uo.Executor.Timeout -> Timed_out
      (* The bench never cancels or injects faults; a capped bar is the
         only sensible rendering if one ever surfaces. *)
      | Some (Sparql_uo.Executor.Cancelled | Sparql_uo.Executor.Injected_fault _)
        ->
          Timed_out
      | None ->
          Time
            (report.Sparql_uo.Executor.transform_ms
           +. report.Sparql_uo.Executor.exec_ms)
    in
    (match (!best, cell) with
    | None, _ -> best := Some cell
    | Some (Time t0), Time t -> if t < t0 then best := Some (Time t)
    | Some (Oom | Timed_out), (Time _ as t) -> best := Some t
    | Some _, _ -> ())
  done;
  (Option.get !best, Option.get !last_report)

let run_lbr config ~stats:_ env query =
  let best = ref None in
  for _ = 1 to config.repetitions do
    let report =
      Lbr.Lbr_eval.run ~row_budget:config.row_budget
        ~timeout_ms:config.timeout_ms env query
    in
    let cell =
      match report.Lbr.Lbr_eval.bag with
      | Some _ -> Time report.Lbr.Lbr_eval.exec_ms
      | None -> Oom
    in
    (match (!best, cell) with
    | None, _ -> best := Some cell
    | Some (Time t0), Time t -> if t < t0 then best := Some (Time t)
    | Some (Oom | Timed_out), (Time _ as t) -> best := Some t
    | Some _, _ -> ())
  done;
  Option.get !best

(* Plain-text table rendering. *)
let print_table ~header ~rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i cell -> Printf.printf "%-*s  " (List.nth widths i) cell)
      cells;
    print_newline ()
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  flush stdout

(* Peak resident set size (VmHWM) in KB, from /proc/self/status; 0 when
   the file or field is unavailable (non-Linux). Every section records it
   so memory regressions show up next to their latency numbers. *)
let peak_rss_kb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0
          | Some line ->
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                String.fold_left
                  (fun acc c ->
                    if c >= '0' && c <= '9' then
                      (acc * 10) + (Char.code c - Char.code '0')
                    else acc)
                  0 line
              else scan ()
        in
        scan ())
  with
  | kb -> kb
  | exception Sys_error _ -> 0

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let human_int n =
  let s = string_of_int n in
  let len = String.length s in
  let buf = Buffer.create (len + len / 3) in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf
