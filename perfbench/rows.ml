(* Output checking: every cell a run produces is compared with a reference
   row for the same (protocol, degree, seed) key. References come from the
   committed campaign artifacts where they hold the key, and from the
   benchmark's own reference files (written by [bench.exe refs]) elsewhere;
   a key present in both must agree, or the references are refused. *)

module Cell = Campaign.Cell_result

(* The fields of [got] that differ from [reference], by name. Series and
   the transient timing fields are not part of a row. Values compare
   exactly ([Float.equal] holds NaN equal to NaN): the simulator is
   deterministic, so any difference at all is a changed result. *)
let diff ~reference (got : Cell.t) =
  let keys = if Cell.key reference = Cell.key got then [] else [ "key" ] in
  let axes = if reference.Cell.axes = got.Cell.axes then [] else [ "axes" ] in
  let rm = Cell.metrics reference and gm = Cell.metrics got in
  let fields =
    List.filter_map
      (fun (name, v) ->
        match List.assoc_opt name gm with
        | Some w when Float.equal v w -> None
        | Some _ | None -> Some name)
      rm
    @ List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name rm then None else Some name)
        gm
  in
  keys @ axes @ fields

type table = (string * int * int, Cell.t) Hashtbl.t

let add (tbl : table) ~source (c : Cell.t) =
  match Hashtbl.find_opt tbl (Cell.key c) with
  | Some prev when diff ~reference:prev c <> [] ->
    let p, d, s = Cell.key c in
    failwith
      (Printf.sprintf "reference rows disagree for %s:%d:%d (%s): %s" p d s
         source
         (String.concat "," (diff ~reference:prev c)))
  | Some _ | None -> Hashtbl.replace tbl (Cell.key c) c

let add_artifact tbl path =
  match Campaign.Artifact.read ~path with
  | Ok a -> List.iter (add tbl ~source:path) a.Campaign.Artifact.cells
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let rows_to_string cells =
  "[\n"
  ^ String.concat ",\n"
      (List.map
         (fun c -> Obs.Json.to_string (Cell.to_json ~include_series:false c))
         cells)
  ^ "\n]\n"

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let add_rows_file tbl path =
  match Obs.Json.of_string (read_file path) with
  | Obs.Json.List rows ->
    List.iter
      (fun j ->
        match Cell.of_json j with
        | Ok c -> add tbl ~source:path c
        | Error e -> failwith (Printf.sprintf "%s: %s" path e))
      rows
  | _ -> failwith (path ^ ": expected a JSON list of rows")
