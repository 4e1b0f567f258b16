type node = Cvar of int | Cterm of int | Missing

type t = {
  cs : node;
  cp : node;
  co : node;
  source : Sparql.Triple_pattern.t;
}

let compile_node store table = function
  | Sparql.Triple_pattern.Var v -> Cvar (Sparql.Vartable.id table v)
  | Sparql.Triple_pattern.Term term -> (
      match Rdf_store.Snapshot.encode_term store term with
      | Some id -> Cterm id
      | None -> Missing)

let compile store table (tp : Sparql.Triple_pattern.t) =
  {
    cs = compile_node store table tp.s;
    cp = compile_node store table tp.p;
    co = compile_node store table tp.o;
    source = tp;
  }

let compile_list store table tps = List.map (compile store table) tps

let has_missing ctp =
  ctp.cs = Missing || ctp.cp = Missing || ctp.co = Missing

let var_columns ctp =
  let add acc = function Cvar c when not (List.mem c acc) -> c :: acc | _ -> acc in
  List.rev (add (add (add [] ctp.cs) ctp.cp) ctp.co)

(* The key for a position: a constant id, or the row's value when the
   column is bound, or None (wildcard). *)
let key_of row = function
  | Cterm id -> Some id
  | Cvar col when row.(col) <> Sparql.Binding.unbound -> Some row.(col)
  | Cvar _ -> None
  | Missing -> assert false

let exact_count store ctp =
  if has_missing ctp then 0
  else
    let key = function
      | Cterm id -> Some id
      | Cvar _ -> None
      | Missing -> assert false
    in
    Rdf_store.Snapshot.count store ?s:(key ctp.cs) ?p:(key ctp.cp)
      ?o:(key ctp.co) ()

let count_with store ctp row =
  if has_missing ctp then 0
  else
    Rdf_store.Snapshot.count store ?s:(key_of row ctp.cs)
      ?p:(key_of row ctp.cp) ?o:(key_of row ctp.co) ()

let iter_matches store ctp row ~f =
  if has_missing ctp then ()
  else
    Rdf_store.Snapshot.iter store ?s:(key_of row ctp.cs)
      ?p:(key_of row ctp.cp) ?o:(key_of row ctp.co) ~f ()

let iter_strided store ctp row ~stride ~f =
  if has_missing ctp then ()
  else
    Rdf_store.Snapshot.iter_strided store ?s:(key_of row ctp.cs)
      ?p:(key_of row ctp.cp) ?o:(key_of row ctp.co) ~stride ~f ()
